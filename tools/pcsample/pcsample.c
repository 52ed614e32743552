/* pcsample: a program-counter sampler loaded with LD_PRELOAD.
 *
 * A CLOCK_MONOTONIC POSIX timer raises SIGPROF every PCSAMPLE_US
 * microseconds (default 200); the handler records the interrupted RIP.
 * At exit the process's /proc/self/maps and the sampled addresses go to
 * $PCSAMPLE_OUT, which report.py turns into function and line tables.
 * Only the preloaded process is sampled: LD_PRELOAD is dropped from its
 * environment before main, so children it spawns run unsampled.
 *
 *   gcc -O2 -shared -fPIC -o libpcsample.so pcsample.c -lrt
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1L << 22)

static unsigned long samples[MAX_SAMPLES];
static long taken;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    const char *path = getenv("PCSAMPLE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    fputs("# maps\n", out);
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fputs("# samples\n", out);
    for (long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD");
    const char *us = getenv("PCSAMPLE_US");
    long period_ns = (us ? atol(us) : 200) * 1000;
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    if (period_ns <= 0 || timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0)
        return;
    struct itimerspec spec = {
        .it_interval = {period_ns / 1000000000, period_ns % 1000000000},
        .it_value = {period_ns / 1000000000, period_ns % 1000000000},
    };
    timer_settime(timer, 0, &spec, NULL);
    atexit(dump);
}
