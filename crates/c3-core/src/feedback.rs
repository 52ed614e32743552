//! Server feedback piggybacked on responses.
//!
//! C3 servers relay two numbers on every response (§3.1): the size of the
//! request queue observed when the response is about to be dispatched
//! (`q_s`) and the service time of the operation (`1/μ_s`). Clients smooth
//! both with EWMAs. [`Feedback`] is the wire/in-memory representation.

use crate::time::Nanos;

/// Per-response feedback from a server, as defined by the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Feedback {
    /// Number of requests pending at the server when this response was
    /// dispatched (queued plus executing, not counting the finished one).
    pub queue_size: u32,
    /// Service time of this request at the server (time spent executing,
    /// excluding network and client-side queuing).
    pub service_time: Nanos,
}

impl Feedback {
    /// Construct feedback.
    pub fn new(queue_size: u32, service_time: Nanos) -> Self {
        Self {
            queue_size,
            service_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_carries_fields() {
        let f = Feedback::new(7, Nanos::from_millis(4));
        assert_eq!(f.queue_size, 7);
        assert_eq!(f.service_time, Nanos::from_millis(4));
    }
}
