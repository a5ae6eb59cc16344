//! The versioned client/server control protocol.
//!
//! Messages are compact JSON documents carried as CRC-framed,
//! length-prefixed payloads over any [`FrameLink`] — the exact framing
//! the shard mesh and the checkpoint container use (`payload_len u64 |
//! crc32 u32 | payload`, little-endian), so Unix-domain and TCP carriers
//! are interchangeable and a corrupted frame is rejected before parsing.
//!
//! Every request and response carries `"v": 1`; a version mismatch is an
//! immediate error on both sides, which is what makes the protocol
//! safely evolvable: an old client talking to a new server (or vice
//! versa) fails loudly at the first frame instead of misinterpreting
//! fields.
//!
//! Requests (`"op"` selects the verb):
//!
//! ```text
//! {"v":1,"op":"submit","spec":{...}}      -> {"v":1,"ok":true,"id":N}
//! {"v":1,"op":"status"}                   -> {"v":1,"ok":true,"jobs":[...]}
//! {"v":1,"op":"status","id":N}            -> {"v":1,"ok":true,"job":{...}}
//! {"v":1,"op":"cancel","id":N}            -> {"v":1,"ok":true}
//! {"v":1,"op":"logs","id":N}              -> {"v":1,"ok":true,"lines":[...]}
//! {"v":1,"op":"migrate","id":N}           -> {"v":1,"ok":true}
//! {"v":1,"op":"metrics"}                  -> {"v":1,"ok":true,"metrics":{...}}
//! {"v":1,"op":"shutdown"}                 -> {"v":1,"ok":true}
//! ```
//!
//! `status` without an id lists the last
//! [`FINISHED_KEPT`](crate::server::FINISHED_KEPT) finished jobs, then
//! the live ones. Failures come back as `{"v":1,"ok":false,"error":"..."}`.
//!
//! The daemon reads requests under [`MAX_REQUEST_BYTES`]: a frame whose
//! header claims more is answered `ok: false` and its connection
//! closed, without allocating the claimed size.

use fasda_net::transport::{FrameLink, LinkError};
use fasda_trace::json::ObjBuilder;
use fasda_trace::Json;

/// Control-protocol version; bumped on any wire-visible change.
pub const PROTO_VERSION: i64 = 1;

/// Cap on one request frame's payload. A `submit` spec is well under
/// 64 KiB; responses a client reads keep the container's frame cap.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Protocol-layer errors.
#[derive(Debug)]
pub enum ProtoError {
    /// The carrier failed (closed socket, bad CRC, …).
    Link(LinkError),
    /// The frame arrived but is not a valid protocol document.
    Malformed(String),
    /// The peer speaks a different protocol version.
    Version(i64),
    /// The server answered `ok: false`.
    Rejected(String),
    /// A request frame's header claims more than [`MAX_REQUEST_BYTES`].
    TooLarge {
        /// Payload bytes the header claims.
        len: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Link(e) => write!(f, "control link: {e}"),
            ProtoError::Malformed(e) => write!(f, "malformed control message: {e}"),
            ProtoError::Version(v) => write!(
                f,
                "protocol version mismatch: peer speaks v{v}, this build speaks v{PROTO_VERSION}"
            ),
            ProtoError::Rejected(e) => write!(f, "server rejected request: {e}"),
            ProtoError::TooLarge { len } => write!(
                f,
                "request frame claims {len} bytes, over the {MAX_REQUEST_BYTES}-byte cap"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<LinkError> for ProtoError {
    fn from(e: LinkError) -> Self {
        ProtoError::Link(e)
    }
}

/// Start a versioned message document.
pub fn msg() -> ObjBuilder {
    Json::obj().field("v", PROTO_VERSION)
}

/// Send one protocol document over the link.
pub fn write_msg(link: &mut dyn FrameLink, doc: &Json) -> Result<(), ProtoError> {
    Ok(link.send_frame(doc.compact().as_bytes())?)
}

/// Receive one protocol document, validating framing, JSON shape, and
/// the version field.
pub fn read_msg(link: &mut dyn FrameLink) -> Result<Json, ProtoError> {
    parse_msg(&link.recv_frame()?)
}

/// Receive one request: [`read_msg`] under [`MAX_REQUEST_BYTES`], with
/// an oversized header reported as [`ProtoError::TooLarge`].
pub fn read_request(link: &mut dyn FrameLink) -> Result<Json, ProtoError> {
    match link.recv_frame_within(MAX_REQUEST_BYTES) {
        Ok(bytes) => parse_msg(&bytes),
        Err(LinkError::Oversized { len, .. }) => Err(ProtoError::TooLarge { len }),
        Err(e) => Err(e.into()),
    }
}

fn parse_msg(bytes: &[u8]) -> Result<Json, ProtoError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ProtoError::Malformed(format!("not UTF-8: {e}")))?;
    let doc = Json::parse(text).map_err(ProtoError::Malformed)?;
    match doc.get("v").and_then(Json::as_i64) {
        Some(PROTO_VERSION) => Ok(doc),
        Some(v) => Err(ProtoError::Version(v)),
        None => Err(ProtoError::Malformed("message has no version field".into())),
    }
}

/// An `ok: true` response skeleton.
pub fn ok() -> ObjBuilder {
    msg().field("ok", true)
}

/// An `ok: false` response with the error message.
pub fn err(error: &str) -> Json {
    msg().field("ok", false).field("error", error).build()
}

/// Unwrap a response: `Ok(doc)` for `ok: true`, the server's error
/// otherwise.
pub fn expect_ok(doc: Json) -> Result<Json, ProtoError> {
    match doc.get("ok") {
        Some(&Json::Bool(true)) => Ok(doc),
        Some(&Json::Bool(false)) => Err(ProtoError::Rejected(
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string(),
        )),
        _ => Err(ProtoError::Malformed("response has no ok field".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasda_net::transport::MemLink;

    #[test]
    fn round_trip_over_memlink() {
        let (mut a, mut b) = MemLink::pair();
        let req = msg().field("op", "status").field("id", Json::uint(7)).build();
        write_msg(&mut a, &req).unwrap();
        let got = read_msg(&mut b).unwrap();
        assert_eq!(got, req);
    }

    #[test]
    fn version_mismatch_is_loud() {
        let (mut a, mut b) = MemLink::pair();
        let bad = Json::obj().field("v", 99i64).field("op", "status").build();
        a.send_frame(bad.compact().as_bytes()).unwrap();
        match read_msg(&mut b) {
            Err(ProtoError::Version(99)) => {}
            other => panic!("wanted version error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_frames_are_rejected() {
        let (mut a, mut b) = MemLink::pair();
        a.send_frame(b"not json").unwrap();
        assert!(matches!(read_msg(&mut b), Err(ProtoError::Malformed(_))));
        a.send_frame(br#"{"op":"status"}"#).unwrap();
        assert!(matches!(read_msg(&mut b), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn ok_and_err_shapes() {
        let good = ok().field("id", Json::uint(3)).build();
        assert_eq!(
            expect_ok(good).unwrap().get("id").and_then(Json::as_i64),
            Some(3)
        );
        match expect_ok(err("nope")) {
            Err(ProtoError::Rejected(e)) => assert_eq!(e, "nope"),
            other => panic!("wanted rejection, got {other:?}"),
        }
    }
}
