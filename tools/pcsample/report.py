#!/usr/bin/env python3
"""Turn a pcsample dump into function and source-line tables.

    python3 tools/pcsample/report.py DUMP [--top N] [--binary PATH]

DUMP is the file libpcsample.so wrote ($PCSAMPLE_OUT): the process's
/proc/self/maps, then one sampled instruction address per line. Each
address is mapped to its file through the maps, to an ELF virtual
address through that file's PT_LOAD program headers, and symbolised with
`addr2line -a -f -i -C`. Build the binary with line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) or every frame reads
`??`. Three tables follow:

- innermost function: the function (after inlining) each sample landed in;
- inclusive inline frame: every function on a sample's inline chain, so an
  inlined callee's cost also counts for the function it was inlined into
  (this is the inline chain inside one machine function, not a call stack);
- file:line of the innermost frame.

--binary limits symbolisation to files whose path ends with PATH; samples
in other files (libc, say) are then tallied by file name. Samples outside
any file-backed mapping (the vdso, JIT pages) count as [unmapped].
"""

import argparse
import collections
import struct
import subprocess
import sys


def read_dump(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:]
            elif section == "maps":
                parts = line.split(maxsplit=5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append(int(line, 16))
    return maps, samples


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD in a 64-bit ELF file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def to_vaddr(segs, offset):
    for p_offset, p_vaddr, p_filesz in segs:
        if p_offset <= offset < p_offset + p_filesz:
            return offset - p_offset + p_vaddr
    return None


def symbolise(path, addrs):
    """addr -> [(function, file:line), ...] innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    frames, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            loc = out[i + 1] if i + 1 < len(out) else "??:0"
            current.append((out[i], loc.split(" (discriminator")[0]))
            i += 2
    return frames


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--binary", default="")
    args = ap.parse_args()

    maps, samples = read_dump(args.dump)
    if not samples:
        sys.exit("no samples in dump")
    by_file = collections.defaultdict(collections.Counter)
    unmapped = 0
    for a in samples:
        hit = next((m for m in maps if m[0] <= a < m[1]), None)
        if hit is None:
            unmapped += 1
        else:
            lo, _, off, path = hit
            by_file[path][a - lo + off] += 1

    inner, inclusive, lines = (collections.Counter() for _ in range(3))
    inner["[unmapped]"] = unmapped
    for path, offsets in by_file.items():
        if not path.endswith(args.binary):
            inner[f"[{path.rsplit('/', 1)[-1]}]"] += sum(offsets.values())
            continue
        segs = load_segments(path)
        vaddrs = {off: to_vaddr(segs, off) for off in offsets}
        frames = symbolise(path, sorted({v for v in vaddrs.values() if v is not None}))
        base = path.rsplit("/", 1)[-1]
        for off, n in offsets.items():
            chain = frames.get(vaddrs[off]) or [("??", "??:0")]
            if chain[0][1].startswith("??"):
                # No line tables (a system library): the nearest exported
                # symbol may be a neighbour of the real function.
                chain = [(f"{chain[0][0]} [{base}]", f"?? [{base}]")]
            inner[chain[0][0]] += n
            lines[chain[0][1]] += n
            for func in {f for f, _ in chain}:
                inclusive[func] += n
    inner = +inner
    total = len(samples)
    table("innermost function", inner, total, args.top)
    table("inclusive inline frame", inclusive, total, args.top)
    table("innermost file:line", lines, total, args.top)


if __name__ == "__main__":
    main()
