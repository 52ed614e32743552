//! Error type of the wire protocol and the socket code built on it.

use std::fmt;

/// Errors produced while framing, parsing or moving protocol frames.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// A frame announced a body larger than the protocol maximum.
    FrameTooLarge(usize),
    /// The peer sent bytes that do not parse as a frame.
    Malformed(&'static str),
    /// The connection closed while requests were in flight.
    ConnectionClosed,
    /// The server addressed does not exist in the client's view.
    UnknownServer(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds maximum"),
            NetError::Malformed(what) => write!(f, "malformed frame: {what}"),
            NetError::ConnectionClosed => write!(f, "connection closed"),
            NetError::UnknownServer(s) => write!(f, "unknown server index {s}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(format!("{}", NetError::ConnectionClosed).contains("closed"));
        assert!(format!("{}", NetError::FrameTooLarge(9)).contains('9'));
        assert!(format!("{}", NetError::UnknownServer(3)).contains('3'));
        let io = NetError::from(std::io::Error::other("x"));
        assert!(format!("{io}").contains("i/o"));
    }

    #[test]
    fn io_source_is_exposed() {
        use std::error::Error;
        let io = NetError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        assert!(NetError::ConnectionClosed.source().is_none());
    }
}
