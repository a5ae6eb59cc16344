//! Shard exchange transport: one trait, two carriers, one address.
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
//! [`Endpoint`] names where a stream carrier lives, and its
//! [`Endpoint::bind`] / [`Endpoint::connect`] are the only code that
//! opens a socket: the shard fleet, the job daemon and its client all
//! spell, bind and dial addresses here.
//!
//! All carriers move identical bytes; which one a run uses cannot
//! affect simulation results, only wall-clock time.

use fasda_ckpt::{frame, CkptError};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
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
    fn new(stream: UnixStream) -> std::io::Result<Self> {
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
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(StreamLink { reader: BufReader::new(stream), writer })
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

/// Where a stream carrier lives, in the one grammar every listener and
/// dialler takes: `tcp:HOST:PORT`, `unix:PATH`, or a bare `PATH` (Unix).
/// [`Display`](std::fmt::Display) prints the same grammar back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path: the same-host carrier.
    Unix(PathBuf),
    /// A TCP address `HOST:PORT`: the cross-host carrier. Binding port 0
    /// picks a free port.
    Tcp(String),
}

impl std::str::FromStr for Endpoint {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        match spec.strip_prefix("tcp:") {
            Some(addr) => match addr.rsplit_once(':') {
                Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                    Ok(Endpoint::Tcp(addr.to_string()))
                }
                _ => Err(format!("endpoint `{spec}`: tcp needs HOST:PORT")),
            },
            None => match spec.strip_prefix("unix:").unwrap_or(spec) {
                "" => Err(format!("endpoint `{spec}` names no socket path")),
                path => Ok(Endpoint::Unix(path.into())),
            },
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl Endpoint {
    /// Dial the listener here.
    pub fn connect(&self) -> std::io::Result<Box<dyn FrameLink>> {
        let failed = |e| self.failed(e);
        Ok(match self {
            Endpoint::Unix(path) => Box::new(SocketLink::new(UnixStream::connect(path).map_err(failed)?)?),
            Endpoint::Tcp(addr) => Box::new(TcpLink::new(TcpStream::connect(addr.as_str()).map_err(failed)?)?),
        })
    }

    /// Listen here. A Unix socket gets its directory created and a stale
    /// socket file at its path replaced; a TCP port 0 is resolved, and
    /// [`Listener::endpoint`] reports the port bound.
    pub fn bind(&self) -> std::io::Result<Listener> {
        let bound = || match self {
            Endpoint::Unix(path) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                    std::fs::remove_file(path)?;
                }
                let socket = UnixListener::bind(path)?;
                let inode = std::fs::metadata(path)?.ino();
                Ok(Listener { socket: Socket::Unix(socket, inode), endpoint: self.clone() })
            }
            Endpoint::Tcp(addr) => {
                let socket = TcpListener::bind(addr.as_str())?;
                let endpoint = Endpoint::Tcp(socket.local_addr()?.to_string());
                Ok(Listener { socket: Socket::Tcp(socket), endpoint })
            }
        };
        bound().map_err(|e| self.failed(e))
    }

    /// Dial the listener here, and bind a listener of our own that its
    /// other clients can dial: the socket `name` beside this one (Unix),
    /// or a free port on the interface the connection left from (TCP).
    pub fn connect_with_listener(&self, name: &str) -> std::io::Result<(Box<dyn FrameLink>, Listener)> {
        match self {
            Endpoint::Unix(path) => {
                let listener = Endpoint::Unix(path.with_file_name(name)).bind()?;
                Ok((self.connect()?, listener))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str()).map_err(|e| self.failed(e))?;
                let here = Endpoint::Tcp(std::net::SocketAddr::new(stream.local_addr()?.ip(), 0).to_string());
                Ok((Box::new(TcpLink::new(stream)?), here.bind()?))
            }
        }
    }

    /// `e`, naming this endpoint.
    fn failed(&self, e: std::io::Error) -> std::io::Error {
        std::io::Error::new(e.kind(), format!("{self}: {e}"))
    }
}

/// A bound [`Endpoint`]. Dropping a Unix listener removes its socket
/// file, unless another listener has taken the path since.
pub struct Listener {
    socket: Socket,
    endpoint: Endpoint,
}

enum Socket {
    /// The listener and the inode of the socket file it bound.
    Unix(UnixListener, u64),
    Tcp(TcpListener),
}

impl Listener {
    /// Where clients dial this listener (a TCP port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Make [`Listener::accept`] fail with `WouldBlock` instead of waiting
    /// when no client is pending, for a caller that polls.
    pub fn set_nonblocking(&self) -> std::io::Result<()> {
        match &self.socket {
            Socket::Unix(l, _) => l.set_nonblocking(true),
            Socket::Tcp(l) => l.set_nonblocking(true),
        }
    }

    /// Take one client's connection. The link blocks on its reads and
    /// writes whether or not the listener does.
    pub fn accept(&self) -> std::io::Result<Box<dyn FrameLink>> {
        Ok(match &self.socket {
            Socket::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Box::new(SocketLink::new(stream)?)
            }
            Socket::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Box::new(TcpLink::new(stream)?)
            }
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let (Socket::Unix(_, inode), Endpoint::Unix(path)) = (&self.socket, &self.endpoint) {
            if std::fs::metadata(path).is_ok_and(|m| m.ino() == *inode) {
                let _ = std::fs::remove_file(path);
            }
        }
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

    fn roundtrip(a: &mut dyn FrameLink, b: &mut dyn FrameLink) {
        a.send_frame(b"hello").expect("send");
        a.send_frame(&[]).expect("send empty");
        assert_eq!(b.recv_frame().expect("recv"), b"hello");
        assert_eq!(b.recv_frame().expect("recv"), Vec::<u8>::new());
        b.send_frame(&vec![0xAB; 100_000]).expect("send big");
        assert_eq!(a.recv_frame().expect("recv big").len(), 100_000);
    }

    #[test]
    fn socket_link_roundtrip() {
        let (mut a, mut b) = SocketLink::pair().expect("pair");
        roundtrip(&mut a, &mut b);
    }

    #[test]
    fn mem_link_roundtrip() {
        let (mut a, mut b) = MemLink::pair();
        roundtrip(&mut a, &mut b);
    }

    /// Bind, dial and accept over `at`; returns the resolved endpoint.
    fn bound_roundtrip(at: &str) -> Endpoint {
        let listener = at.parse::<Endpoint>().expect("endpoint").bind().expect("bind");
        let mut dialed = listener.endpoint().connect().expect("dial");
        roundtrip(&mut *listener.accept().expect("accept"), &mut *dialed);
        listener.endpoint().clone()
    }

    #[test]
    fn tcp_link_roundtrip() {
        let at = bound_roundtrip("tcp:127.0.0.1:0");
        assert!(matches!(&at, Endpoint::Tcp(a) if a.starts_with("127.0.0.1:") && !a.ends_with(":0")), "{at}");
    }

    #[test]
    fn unix_listener_replaces_a_stale_socket_and_removes_its_own() {
        let dir = std::env::temp_dir().join(format!("fasda-endpoint-{}", std::process::id()));
        let at = Endpoint::Unix(dir.join("nested/ctl.sock"));
        // The socket file of a listener whose process died.
        std::mem::forget(at.bind().expect("bind"));
        assert_eq!(bound_roundtrip(&at.to_string()), at);
        assert!(!dir.join("nested/ctl.sock").exists(), "the listener's socket file outlived it");
        // The listener beside a dialled endpoint lives in its directory.
        let ctl = at.bind().expect("bind");
        let (_link, peer) = ctl.endpoint().connect_with_listener("peer-0.sock").expect("dial");
        assert_eq!(peer.endpoint(), &Endpoint::Unix(dir.join("nested/peer-0.sock")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn endpoint_grammar_round_trips_and_refuses_typed() {
        let unix = |p: &str| Endpoint::Unix(p.into());
        for (spec, want, shown) in [
            ("tcp:127.0.0.1:0", Endpoint::Tcp("127.0.0.1:0".into()), "tcp:127.0.0.1:0"),
            ("tcp:[::1]:7700", Endpoint::Tcp("[::1]:7700".into()), "tcp:[::1]:7700"),
            ("tcp:node-3:7700", Endpoint::Tcp("node-3:7700".into()), "tcp:node-3:7700"),
            ("unix:/run/fasda/ctl.sock", unix("/run/fasda/ctl.sock"), "unix:/run/fasda/ctl.sock"),
            ("unix:svc/ctl.sock", unix("svc/ctl.sock"), "unix:svc/ctl.sock"),
            ("svc/ctl.sock", unix("svc/ctl.sock"), "unix:svc/ctl.sock"),
            ("127.0.0.1:0", unix("127.0.0.1:0"), "unix:127.0.0.1:0"),
            ("unix:tcp:x", unix("tcp:x"), "unix:tcp:x"),
        ] {
            let got: Endpoint = spec.parse().expect(spec);
            assert_eq!(got, want, "{spec}");
            assert_eq!(got.to_string(), shown, "{spec}");
            assert_eq!(shown.parse::<Endpoint>().expect(shown), want, "{shown}");
        }
        for bad in ["", "unix:", "tcp:", "tcp:7700", "tcp::7700", "tcp:host", "tcp:host:port", "tcp:host:70000"] {
            let err = bad.parse::<Endpoint>().expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
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
