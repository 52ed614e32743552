//! Blocking framing helpers over the `c3-net` wire protocol.
//!
//! `c3-net` defines the frame layout (length-delimited requests and
//! responses with piggybacked feedback) runtime-agnostically; this module
//! pumps those frames over blocking `std::net` streams — one read buffer
//! per connection, decoded incrementally.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use bytes::BytesMut;
use c3_net::proto::{decode_frame, encode_request, Frame, Request};

/// Read one frame, blocking until it is complete. Returns `None` on a
/// clean end-of-stream at a frame boundary; mid-frame EOF and protocol
/// violations surface as errors.
pub fn read_frame<R: Read>(stream: &mut R, buf: &mut BytesMut) -> io::Result<Option<Frame>> {
    let mut chunk = [0u8; 4096];
    loop {
        match decode_frame(buf) {
            Ok(Some(frame)) => return Ok(Some(frame)),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Encode and send one request. The multiplexed client encodes inside its
/// writer threads (coalescing frames per syscall); this single-frame path
/// remains for serial harnesses and the server tests.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn write_request(stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let mut out = BytesMut::new();
    encode_request(req, &mut out);
    stream.write_all(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::TcpListener;

    #[test]
    fn frames_round_trip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = BytesMut::new();
            let mut seen = Vec::new();
            while let Some(frame) = read_frame(&mut conn, &mut buf).unwrap() {
                match frame {
                    Frame::Request(req) => seen.push(req.id()),
                    other => panic!("client sends requests, got {other:?}"),
                }
            }
            seen
        });
        let mut client = TcpStream::connect(addr).unwrap();
        for id in 0..3u64 {
            write_request(
                &mut client,
                &Request::Get {
                    id,
                    key: Bytes::copy_from_slice(&id.to_be_bytes()),
                },
            )
            .unwrap();
        }
        drop(client);
        assert_eq!(server.join().unwrap(), vec![0, 1, 2]);
    }
}
