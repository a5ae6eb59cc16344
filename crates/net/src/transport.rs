//! Shard exchange transport: one trait, two carriers.
//!
//! The sharded cluster engine exchanges one event frame per lookahead
//! window between worker processes. Every frame travels as a length-
//! and CRC-framed blob (the same `len u64 | crc32 u32 | payload` framing as the
//! checkpoint container's sections — see `fasda_ckpt::frame`), so a torn
//! or corrupted stream is detected at the transport boundary instead of
//! surfacing as a garbled simulation state.
//!
//! [`FrameLink`] abstracts the carrier:
//!
//! * [`StreamLink`] — a connected byte stream: [`SocketLink`] over a
//!   Unix-domain socket, the same-host inter-process transport, and
//!   [`TcpLink`] over TCP (Nagle off: frames are latency-bound barrier
//!   traffic), the cross-host transport;
//! * [`MemLink`] — an in-process channel pair for hermetic tests and the
//!   thread-backed shard harness.
//!
//! All carriers move identical bytes; which one a run uses cannot
//! affect simulation results, only wall-clock time.

use fasda_ckpt::{frame, CkptError};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{Receiver, Sender};

/// Transport failure: an I/O error, a failed CRC, or a peer that went
/// away mid-exchange.
#[derive(Debug)]
pub enum LinkError {
    /// The underlying carrier failed (closed socket, dead peer, …).
    Io(String),
    /// The frame arrived but failed validation (CRC, length bound).
    Frame(CkptError),
    /// The frame's header claims more payload than the reader accepts
    /// ([`FrameLink::recv_frame_within`]).
    Oversized {
        /// Payload bytes the header claims.
        len: u64,
        /// The reader's cap.
        cap: u64,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Io(e) => write!(f, "shard link I/O error: {e}"),
            LinkError::Frame(e) => write!(f, "shard link frame error: {e}"),
            LinkError::Oversized { len, cap } => {
                write!(f, "frame claims {len} bytes, over the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl From<std::io::Error> for LinkError {
    fn from(e: std::io::Error) -> Self {
        LinkError::Io(e.to_string())
    }
}

impl From<CkptError> for LinkError {
    fn from(e: CkptError) -> Self {
        match e {
            CkptError::Io(io) => LinkError::Io(io),
            other => LinkError::Frame(other),
        }
    }
}

/// A bidirectional, ordered, reliable frame pipe between two shard
/// endpoints. Sends are buffered and flushed per frame so a worker can
/// push its exchange frame and return to draining local compute while
/// the peer's frame is still in flight.
pub trait FrameLink: Send {
    /// Send one frame (length + CRC framing added by the link).
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), LinkError>;
    /// Block until one frame arrives; validates framing before returning.
    fn recv_frame(&mut self) -> Result<Vec<u8>, LinkError>;
    /// [`FrameLink::recv_frame`], refusing a frame whose payload exceeds
    /// `cap` bytes. A byte-stream carrier refuses from the header alone,
    /// before allocating; by default the received frame is checked.
    fn recv_frame_within(&mut self, cap: u64) -> Result<Vec<u8>, LinkError> {
        let frame = self.recv_frame()?;
        match frame.len() as u64 {
            len if len > cap => Err(LinkError::Oversized { len, cap }),
            _ => Ok(frame),
        }
    }
}

/// [`FrameLink`] over a connected byte stream, buffered independently
/// in each direction. [`SocketLink`] and [`TcpLink`] are this one carrier
/// over their two stream types, so swapping one for the other cannot
/// change what a run computes, only where its processes live.
pub struct StreamLink<S: Read + Write> {
    reader: BufReader<S>,
    writer: BufWriter<S>,
}

/// [`StreamLink`] over a Unix-domain stream socket.
pub type SocketLink = StreamLink<UnixStream>;

/// [`StreamLink`] over a TCP stream.
pub type TcpLink = StreamLink<TcpStream>;

impl SocketLink {
    /// Wrap a connected stream. The stream is cloned internally so reads
    /// and writes buffer independently.
    pub fn new(stream: UnixStream) -> std::io::Result<Self> {
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(StreamLink { reader: BufReader::new(stream), writer })
    }

    /// A connected in-process socket pair (loopback testing).
    pub fn pair() -> std::io::Result<(Self, Self)> {
        let (a, b) = UnixStream::pair()?;
        Ok((SocketLink::new(a)?, SocketLink::new(b)?))
    }
}

impl TcpLink {
    /// Wrap a connected stream. Disables Nagle's algorithm — every
    /// exchange frame is something a peer is blocked waiting for, so
    /// holding one back to coalesce costs exactly the wrong thing.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(StreamLink { reader: BufReader::new(stream), writer })
    }

    /// Connect to `addr` (e.g. `127.0.0.1:7700` or `host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        TcpLink::new(TcpStream::connect(addr)?)
    }
}

impl<S: Read + Write + Send> FrameLink for StreamLink<S> {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), LinkError> {
        frame::write_frame_to(&mut self.writer, payload)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, LinkError> {
        Ok(frame::read_frame_from(&mut self.reader, "shard-link")?)
    }

    fn recv_frame_within(&mut self, cap: u64) -> Result<Vec<u8>, LinkError> {
        let mut header = [0u8; frame::HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        let len = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        if len > cap {
            return Err(LinkError::Oversized { len, cap });
        }
        Ok(frame::read_frame_from(&mut header.chain(&mut self.reader), "shard-link")?)
    }
}

/// [`FrameLink`] over in-process channels. Frames still round-trip
/// through the CRC framing so the validation path matches the socket
/// carrier byte for byte.
pub struct MemLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl MemLink {
    /// A connected pair of in-memory links.
    pub fn pair() -> (Self, Self) {
        let (atx, brx) = std::sync::mpsc::channel();
        let (btx, arx) = std::sync::mpsc::channel();
        (MemLink { tx: atx, rx: arx }, MemLink { tx: btx, rx: brx })
    }
}

impl FrameLink for MemLink {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), LinkError> {
        let mut framed = Vec::with_capacity(payload.len() + frame::HEADER_BYTES);
        frame::write_frame(&mut framed, payload);
        self.tx
            .send(framed)
            .map_err(|_| LinkError::Io("peer hung up".to_string()))
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, LinkError> {
        let framed = self
            .rx
            .recv()
            .map_err(|_| LinkError::Io("peer hung up".to_string()))?;
        let mut rd = &framed[..];
        Ok(frame::read_frame_from(&mut rd, "shard-link")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut a: impl FrameLink, mut b: impl FrameLink) {
        a.send_frame(b"hello").expect("send");
        a.send_frame(&[]).expect("send empty");
        assert_eq!(b.recv_frame().expect("recv"), b"hello");
        assert_eq!(b.recv_frame().expect("recv"), Vec::<u8>::new());
        b.send_frame(&vec![0xAB; 100_000]).expect("send big");
        assert_eq!(a.recv_frame().expect("recv big").len(), 100_000);
    }

    #[test]
    fn socket_link_roundtrip() {
        let (a, b) = SocketLink::pair().expect("pair");
        roundtrip(a, b);
    }

    #[test]
    fn mem_link_roundtrip() {
        let (a, b) = MemLink::pair();
        roundtrip(a, b);
    }

    #[test]
    fn tcp_link_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dial = std::thread::spawn(move || TcpLink::connect(&addr.to_string()).expect("dial"));
        let (stream, _) = listener.accept().expect("accept");
        let a = TcpLink::new(stream).expect("link");
        let b = dial.join().expect("join");
        roundtrip(a, b);
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let (a, b) = UnixStream::pair().expect("pair");
        let mut rx = SocketLink::new(b).expect("link");
        // A valid frame, then one whose payload was flipped in flight.
        let mut raw = BufWriter::new(a);
        let mut framed = Vec::new();
        fasda_ckpt::frame::write_frame(&mut framed, b"payload");
        raw.write_all(&framed).expect("raw write");
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        raw.write_all(&framed).expect("raw write");
        raw.flush().expect("flush");
        assert_eq!(rx.recv_frame().expect("good frame"), b"payload");
        assert!(matches!(rx.recv_frame(), Err(LinkError::Frame(_))));
    }

    #[test]
    fn allocation_bomb_length_is_rejected() {
        let (a, b) = UnixStream::pair().expect("pair");
        let mut rx = SocketLink::new(b).expect("link");
        let mut raw = BufWriter::new(a);
        raw.write_all(&u64::MAX.to_le_bytes()).expect("len");
        raw.write_all(&0u32.to_le_bytes()).expect("crc");
        raw.flush().expect("flush");
        assert!(matches!(rx.recv_frame(), Err(LinkError::Frame(_))));
    }
}
