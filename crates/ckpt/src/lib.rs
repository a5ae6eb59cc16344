//! # fasda-ckpt — deterministic checkpoint/restore for the FASDA simulator
//!
//! A zero-dependency container format plus the two traits every stateful
//! microarchitectural unit implements so a cluster run can be frozen at a
//! step boundary and resumed bit-identically:
//!
//! * [`Persist`] — value serialization (`save`/`load`) for plain data:
//!   flits, counters, queues, maps. Field order is fixed, integers are
//!   little-endian, floats travel as IEEE-754 bit patterns, and hash
//!   containers are written in sorted key order so the byte stream is a
//!   pure function of logical state. A type's format is declared once,
//!   by [`persist_struct!`] (fields in wire order) or [`persist_enum!`]
//!   (a `u8` tag, then the variant's fields): a field's Rust type is its
//!   wire width, and the committed golden files pin the bytes. Only
//!   formats that validate, narrow a width or are generic are written
//!   by hand.
//! * [`Snapshot`] — in-place serialization (`snapshot`/`restore`) for
//!   structures that mix configuration (rebuilt from `ClusterConfig` at
//!   restore time) with mutable state (restored from the container):
//!   FIFOs keep their capacity, pipelines their latency, rings their slot
//!   count; only the occupancy is persisted.
//!
//! The on-disk container mirrors the wire-format-v2 discipline of
//! `fasda-net::packet`: magic + format version up front, then length- and
//! CRC-framed named sections. [`Container::parse`] validates **every**
//! section CRC before any state is handed out, so a torn or bit-flipped
//! file yields a typed [`CkptError`] naming the bad section and never a
//! partial restore.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::{Path, PathBuf};

/// Container magic: "FCKP".
pub const MAGIC: [u8; 4] = *b"FCKP";

/// Current container format version. There is no read path for older
/// versions: [`Container::parse`] answers them with
/// [`CkptError::BadVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// File extension used for checkpoint files.
pub const EXTENSION: &str = "fckp";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed checkpoint failure. Every decode path returns one of these —
/// corruption is never a panic and never a silent partial restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The file does not start with the `FCKP` magic.
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The byte stream ended before the structure did.
    Truncated {
        /// Section being decoded when the stream ran dry.
        section: String,
    },
    /// A section payload failed its CRC check.
    CrcMismatch {
        /// Name of the corrupt section.
        section: String,
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// Name of the missing section.
        section: String,
    },
    /// The bytes decoded, but the value is inconsistent with the
    /// structure being restored (wrong length, invalid tag, …).
    Malformed {
        /// Section being decoded.
        section: String,
        /// What was wrong.
        what: String,
    },
    /// The snapshot was taken under a different simulator configuration.
    ConfigMismatch {
        /// Config field that disagrees.
        field: String,
    },
    /// Filesystem error while reading or writing a checkpoint.
    Io(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a FASDA checkpoint (bad magic)"),
            CkptError::BadVersion { found, expected } => write!(
                f,
                "checkpoint format version {found} not supported (expected {expected})"
            ),
            CkptError::Truncated { section } => {
                write!(f, "checkpoint truncated in section `{section}`")
            }
            CkptError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "CRC mismatch in section `{section}`: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CkptError::MissingSection { section } => {
                write!(f, "checkpoint is missing section `{section}`")
            }
            CkptError::Malformed { section, what } => {
                write!(f, "malformed section `{section}`: {what}")
            }
            CkptError::ConfigMismatch { field } => write!(
                f,
                "checkpoint was taken under a different configuration (field `{field}` disagrees)"
            ),
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected 0xEDB88320) — the workspace's one
// implementation: checkpoint sections, shard/control frames and the
// fasda-net wire format all checksum through it.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32 update over a chain of slices: `state` starts at
/// `0xFFFF_FFFF` and the finished checksum is the complement of the
/// last returned state.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 over `bytes` (IEEE polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

// ---------------------------------------------------------------------------
// Shared CRC frame: length prefix + checksum + payload
// ---------------------------------------------------------------------------

/// Length- and CRC-framed payload encoding shared by the checkpoint
/// container's section framing and the shard transport's socket frames:
/// `payload_len u64 | crc32 u32 | payload`, little-endian.
///
/// Every decode path enforces [`frame::MAX_FRAME_BYTES`] **before**
/// allocating, so a corrupt or hostile length prefix can never become an
/// allocation bomb, and validates the CRC before handing the payload out.
pub mod frame {
    use super::{crc32, CkptError, Reader};
    use std::io::{Read, Write};

    /// Hard cap on a single frame payload (1 GiB). Checkpoint sections
    /// and shard exchange frames are both far below this; anything above
    /// it is a corrupt or malicious length prefix.
    pub const MAX_FRAME_BYTES: u64 = 1 << 30;

    /// Bytes of framing overhead per frame (length + CRC).
    pub const HEADER_BYTES: usize = 12;

    fn check_len(payload_len: u64, section: &str) -> Result<usize, CkptError> {
        if payload_len > MAX_FRAME_BYTES {
            return Err(CkptError::Malformed {
                section: section.to_string(),
                what: format!(
                    "frame length {payload_len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                ),
            });
        }
        usize::try_from(payload_len).map_err(|_| CkptError::Malformed {
            section: section.to_string(),
            what: format!("frame length {payload_len} overflows usize"),
        })
    }

    fn check_crc(payload: &[u8], stored: u32, section: &str) -> Result<(), CkptError> {
        let computed = crc32(payload);
        if computed != stored {
            return Err(CkptError::CrcMismatch {
                section: section.to_string(),
                stored,
                computed,
            });
        }
        Ok(())
    }

    /// Append one frame to a byte buffer.
    pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Decode one frame through a [`Reader`], borrowing the payload.
    /// `section` names the frame in errors.
    pub fn read_frame<'a>(r: &mut Reader<'a>, section: &str) -> Result<&'a [u8], CkptError> {
        let payload_len = check_len(r.get_u64()?, section)?;
        let stored = r.get_u32()?;
        let payload = r.take(payload_len).map_err(|_| CkptError::Truncated {
            section: section.to_string(),
        })?;
        check_crc(payload, stored, section)?;
        Ok(payload)
    }

    /// Write one frame to a byte stream (socket, pipe, file).
    pub fn write_frame_to(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)
    }

    /// Read one frame from a byte stream, validating length bound and
    /// CRC before returning the payload.
    pub fn read_frame_from(rd: &mut impl Read, section: &str) -> Result<Vec<u8>, CkptError> {
        let mut hdr = [0u8; HEADER_BYTES];
        rd.read_exact(&mut hdr)?;
        let payload_len = u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes"));
        let stored = u32::from_le_bytes(hdr[8..].try_into().expect("4 bytes"));
        let payload_len = check_len(payload_len, section)?;
        let mut payload = vec![0u8; payload_len];
        rd.read_exact(&mut payload)?;
        check_crc(&payload, stored, section)?;
        Ok(payload)
    }
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

/// Little-endian byte sink for one section payload.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte slice (no length prefix).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u128.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an i8.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian i16.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f32 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an f64 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a usize as u64 (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over one section payload. Every read is bounds-checked and
/// failures name the section being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> Reader<'a> {
    /// Wrap `buf` as the payload of `section` (the name only feeds error
    /// messages).
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// Section name this reader decodes.
    pub fn section(&self) -> &str {
        self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the payload is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// How many `T`s to reserve for a container that claims `n`: no
    /// more than the remaining bytes could hold at one `T`'s in-memory
    /// size each, so a forged count cannot make the reservation outgrow
    /// the payload (decoding then fails `Truncated` at the first element
    /// the bytes run out for).
    pub fn capacity_for<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    fn truncated(&self) -> CkptError {
        CkptError::Truncated {
            section: self.section.to_string(),
        }
    }

    /// Build a [`CkptError::Malformed`] for this section.
    pub fn malformed(&self, what: impl Into<String>) -> CkptError {
        CkptError::Malformed {
            section: self.section.to_string(),
            what: what.into(),
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian u128.
    pub fn get_u128(&mut self) -> Result<u128, CkptError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read an i8.
    pub fn get_i8(&mut self) -> Result<i8, CkptError> {
        Ok(self.get_u8()? as i8)
    }

    /// Read a little-endian i16.
    pub fn get_i16(&mut self) -> Result<i16, CkptError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian i32.
    pub fn get_i32(&mut self) -> Result<i32, CkptError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f32 from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an f64 from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a usize stored as u64; values beyond the platform width are
    /// malformed.
    pub fn get_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("usize overflow: {v}")))
    }

    /// Read a container length stored as u64. Guarded against allocation
    /// bombs: a length that cannot possibly fit in the remaining payload
    /// (at one byte per element) is reported as truncation.
    pub fn get_len(&mut self) -> Result<usize, CkptError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(self.truncated());
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("invalid UTF-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Persist: value serialization
// ---------------------------------------------------------------------------

/// Value serialization: a type that can be written out and read back as a
/// standalone value. The encoding must be a pure function of logical
/// state (hash containers iterate in sorted key order).
pub trait Persist: Sized {
    /// Append this value to `w`.
    fn save(&self, w: &mut Writer);
    /// Decode one value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError>;
}

macro_rules! persist_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl Persist for $t {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
                r.$get()
            }
        }
    };
}

persist_prim!(u8, put_u8, get_u8);
persist_prim!(u16, put_u16, get_u16);
persist_prim!(u32, put_u32, get_u32);
persist_prim!(u64, put_u64, get_u64);
persist_prim!(u128, put_u128, get_u128);
persist_prim!(i8, put_i8, get_i8);
persist_prim!(i16, put_i16, get_i16);
persist_prim!(i32, put_i32, get_i32);
persist_prim!(i64, put_i64, get_i64);
persist_prim!(f32, put_f32, get_f32);
persist_prim!(f64, put_f64, get_f64);
persist_prim!(bool, put_bool, get_bool);
persist_prim!(usize, put_usize, get_usize);

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Box<T> {
    fn save(&self, w: &mut Writer) {
        (**self).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Box::new(T::load(r)?))
    }
}

/// Declare a struct's [`Persist`] format once: the listed fields, in the
/// listed order, each in its own type's encoding. The list **is** the
/// wire order. Tuple structs list their indices (`persist_struct!(Fix
/// { 0 })`).
///
/// ```
/// # use fasda_ckpt::{persist_struct, Persist, Reader, Writer};
/// struct Hit { slot: u16, force: i64 }
/// persist_struct!(Hit { slot, force });
/// let mut w = Writer::new();
/// Hit { slot: 3, force: -1 }.save(&mut w);
/// assert_eq!(w.len(), 2 + 8);
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($t:ident { $($f:tt),* $(,)? }) => {
        impl $crate::Persist for $t {
            fn save(&self, w: &mut $crate::Writer) {
                $( $crate::Persist::save(&self.$f, w); )*
            }
            #[allow(clippy::init_numbered_fields)]
            fn load(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CkptError> {
                Ok(Self { $( $f: $crate::Persist::load(r)?, )* })
            }
        }
    };
}

/// Declare an enum's [`Persist`] format once: a `u8` tag, then the
/// variant's fields in the listed order. Unit, tuple (`Tag(a, b)`, the
/// names only bind) and named (`Tag { x, y }`) variants mix freely. An
/// unlisted tag loads as [`CkptError::Malformed`] naming the type.
///
/// ```
/// # use fasda_ckpt::{persist_enum, Persist, Reader, Writer};
/// enum Msg { Stop, Go(u32), Ack { seq: u32 } }
/// persist_enum!(Msg { 0 => Stop, 1 => Go(n), 2 => Ack { seq } });
/// let mut w = Writer::new();
/// Msg::Ack { seq: 7 }.save(&mut w);
/// assert_eq!(w.into_bytes(), [2, 7, 0, 0, 0]);
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($t:ident {
        $( $tag:literal => $v:ident $( ( $($a:ident),* ) )? $( { $($n:ident),* $(,)? } )? ),* $(,)?
    }) => {
        impl $crate::Persist for $t {
            fn save(&self, w: &mut $crate::Writer) {
                match self {
                    $( Self::$v $( ( $($a),* ) )? $( { $($n),* } )? => {
                        w.put_u8($tag);
                        $( $( $crate::Persist::save($a, w); )* )?
                        $( $( $crate::Persist::save($n, w); )* )?
                    } )*
                }
            }
            fn load(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CkptError> {
                Ok(match r.get_u8()? {
                    $( $tag => {
                        $( $( let $a = $crate::Persist::load(r)?; )* )?
                        $( $( let $n = $crate::Persist::load(r)?; )* )?
                        Self::$v $( ( $($a),* ) )? $( { $($n),* } )?
                    } )*
                    t => {
                        return Err(r.malformed(format!(
                            concat!("unknown ", stringify!($t), " tag {}"),
                            t
                        )))
                    }
                })
            }
        }
    };
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(r.malformed(format!("invalid Option tag {b:#04x}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(r.capacity_for::<T>(n));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(r.capacity_for::<T>(n));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist, D: Persist> Persist for (A, B, C, D) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
        self.3.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?, D::load(r)?))
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        match out.try_into() {
            Ok(a) => Ok(a),
            Err(_) => unreachable!("length checked above"),
        }
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.insert(k, v).is_some() {
                return Err(r.malformed("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<K: Persist + Ord> Persist for BTreeSet<K> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for k in self {
            k.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            if !out.insert(K::load(r)?) {
                return Err(r.malformed("duplicate set key"));
            }
        }
        Ok(out)
    }
}

// Hash containers are written in sorted key order: iteration order of a
// HashMap is not a function of its logical contents, and a checkpoint
// byte stream must be.
impl<K: Persist + Ord + Hash + Eq, V: Persist> Persist for HashMap<K, V> {
    fn save(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = HashMap::with_capacity(r.capacity_for::<(K, V)>(n));
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.insert(k, v).is_some() {
                return Err(r.malformed("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<K: Persist + Ord + Hash + Eq> Persist for HashSet<K> {
    fn save(&self, w: &mut Writer) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort();
        w.put_usize(keys.len());
        for k in keys {
            k.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.get_len()?;
        let mut out = HashSet::with_capacity(r.capacity_for::<K>(n));
        for _ in 0..n {
            if !out.insert(K::load(r)?) {
                return Err(r.malformed("duplicate set key"));
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Snapshot: in-place serialization
// ---------------------------------------------------------------------------

/// In-place serialization for structures that were built from
/// configuration: `restore` overwrites the mutable state of `self` and
/// leaves config-derived shape (capacities, latencies, peer lists, slot
/// counts) untouched. Restoring into a structure whose shape disagrees
/// with the snapshot is a [`CkptError::Malformed`], never a partial write.
pub trait Snapshot {
    /// Append this unit's mutable state to `w`.
    fn snapshot(&self, w: &mut Writer);
    /// Overwrite this unit's mutable state from `r`.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError>;
}

/// Snapshot every element of a slice, length-prefixed.
pub fn snapshot_slice<T: Snapshot>(items: &[T], w: &mut Writer) {
    w.put_usize(items.len());
    for it in items {
        it.snapshot(w);
    }
}

/// Restore every element of a slice; the stored length must match.
pub fn restore_slice<T: Snapshot>(items: &mut [T], r: &mut Reader<'_>) -> Result<(), CkptError> {
    let n = r.get_usize()?;
    if n != items.len() {
        return Err(r.malformed(format!(
            "slice length mismatch: snapshot has {n}, structure has {}",
            items.len()
        )));
    }
    for it in items.iter_mut() {
        it.restore(r)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

/// Builder for a checkpoint container: named, CRC-framed sections.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl ContainerWriter {
    /// Fresh empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named section with the given payload.
    pub fn push(&mut self, name: &str, payload: Writer) {
        assert!(name.len() <= u8::MAX as usize, "section name too long");
        self.sections.push((name.to_string(), payload.into_bytes()));
    }

    /// Serialize the container: magic, version, section count, then each
    /// section as `name_len u8 | name | payload_len u64 | crc32 u32 |
    /// payload`.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.push(name.len() as u8);
            out.extend_from_slice(name.as_bytes());
            frame::write_frame(&mut out, payload);
        }
        out
    }
}

/// A parsed checkpoint container. Parsing validates the magic, the format
/// version, and the CRC of **every** section before returning, so a
/// successfully parsed container is internally consistent end to end.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Parse and fully validate `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CkptError> {
        let header = "header";
        let mut r = Reader::new(bytes, header);
        let magic = r.take(4).map_err(|_| CkptError::BadMagic)?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.get_u32().map_err(|_| CkptError::BadMagic)?;
        if version != FORMAT_VERSION {
            return Err(CkptError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.get_u32()? as usize;
        // Each section is at least a name-length byte and a frame header.
        if count > r.remaining() / (1 + frame::HEADER_BYTES) {
            return Err(r.truncated());
        }
        let mut sections: Vec<(String, &'a [u8])> = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.get_u8()? as usize;
            let name_bytes = r.take(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| r.malformed("section name is not UTF-8"))?
                .to_string();
            let payload = frame::read_frame(&mut r, &name)?;
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(CkptError::Malformed {
                    section: name.clone(),
                    what: "duplicate section name".to_string(),
                });
            }
            sections.push((name, payload));
        }
        if !r.is_exhausted() {
            return Err(CkptError::Malformed {
                section: header.to_string(),
                what: format!("{} trailing bytes after last section", r.remaining()),
            });
        }
        Ok(Self { sections })
    }

    /// Names of all sections, in file order. Only tests call it: the
    /// cluster's `golden` suite checks a committed container parses into
    /// sections.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Raw payload of a section, if present.
    pub fn payload(&self, name: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }

    /// A [`Reader`] over a required section's payload.
    pub fn reader(&self, name: &'a str) -> Result<Reader<'a>, CkptError> {
        match self.payload(name) {
            Some(p) => Ok(Reader::new(p, name)),
            None => Err(CkptError::MissingSection {
                section: name.to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// File helpers: atomic write, naming, retention
// ---------------------------------------------------------------------------

/// Canonical checkpoint filename for a step boundary: zero-padded so
/// lexicographic order equals numeric order.
pub fn checkpoint_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt-{step:010}.{EXTENSION}"))
}

/// Parse the step number out of a checkpoint filename.
pub fn checkpoint_step(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("ckpt-")?
        .strip_suffix(&format!(".{EXTENSION}"))?;
    stem.parse().ok()
}

/// Write `bytes` atomically: to a temporary sibling first, then rename
/// over the final path, so a crash mid-write never leaves a torn
/// checkpoint under the canonical name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("{EXTENSION}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// All checkpoints in `dir`, sorted ascending by step. A directory that
/// does not exist yet holds no checkpoints — that's an empty list, not
/// an error (a job resumed before its first checkpoint write starts
/// fresh).
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CkptError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(step) = checkpoint_step(&path) {
            out.push((step, path));
        }
    }
    out.sort();
    Ok(out)
}

/// The most recent checkpoint in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    Ok(list_checkpoints(dir)?.pop().map(|(_, p)| p))
}

pub mod journal {
    //! Crash-safe append-only record log, built on the same
    //! [`frame`](super::frame) encoding as the container sections and
    //! the shard transport: each record is `len u64 | crc32 u32 |
    //! payload`, appended and fsynced before the write is acknowledged.
    //!
    //! Recovery semantics (the part a queue journal lives or dies on):
    //! [`replay`] returns every record up to the first *incomplete*
    //! frame. A frame cut short by a crash mid-append — the header or
    //! payload simply ends early — is a **torn tail**: the record was
    //! never acknowledged, so it is discarded and reported, not an
    //! error. A frame that is fully present but fails its CRC is
    //! *corruption* of acknowledged data and is a hard
    //! [`CkptError::CrcMismatch`]; so is any garbage that continues
    //! after a short frame.

    use super::{frame, CkptError};
    use std::io::Write;
    use std::path::{Path, PathBuf};

    /// What [`replay`] found in a journal file.
    #[derive(Debug)]
    pub struct Replay {
        /// Every durable record, in append order.
        pub records: Vec<Vec<u8>>,
        /// Bytes of torn (unacknowledged, discarded) tail frame, 0 for
        /// a cleanly closed journal.
        pub torn_bytes: u64,
    }

    /// Read a journal back. A missing file is an empty journal.
    pub fn replay(path: &Path) -> Result<Replay, CkptError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Replay { records: Vec::new(), torn_bytes: 0 })
            }
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            // A header or payload that runs past EOF is a torn tail
            // (the append never completed); anything else re-frames
            // through the shared validation path.
            if rest.len() < frame::HEADER_BYTES {
                return Ok(Replay { records, torn_bytes: rest.len() as u64 });
            }
            let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            if len > frame::MAX_FRAME_BYTES {
                return Err(CkptError::Malformed {
                    section: "journal".to_string(),
                    what: format!("record length {len} exceeds the frame cap"),
                });
            }
            let total = frame::HEADER_BYTES + len as usize;
            if rest.len() < total {
                return Ok(Replay { records, torn_bytes: rest.len() as u64 });
            }
            let mut rd = &rest[..total];
            let payload = frame::read_frame_from(&mut rd, "journal")?;
            records.push(payload);
            pos += total;
        }
        Ok(Replay { records, torn_bytes: 0 })
    }

    /// Append handle: one durable record per [`JournalWriter::append`].
    #[derive(Debug)]
    pub struct JournalWriter {
        file: std::fs::File,
        path: PathBuf,
    }

    impl JournalWriter {
        /// Open (creating if absent) `path` for appending.
        pub fn open(path: &Path) -> Result<Self, CkptError> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Ok(JournalWriter { file, path: path.to_path_buf() })
        }

        /// Append one record and fsync it. When this returns `Ok`, the
        /// record survives a crash.
        pub fn append(&mut self, payload: &[u8]) -> Result<(), CkptError> {
            let mut framed = Vec::with_capacity(payload.len() + frame::HEADER_BYTES);
            frame::write_frame(&mut framed, payload);
            self.file.write_all(&framed)?;
            self.file.sync_data()?;
            Ok(())
        }

        /// Replace the journal's contents with `records` (compaction
        /// after a snapshot): write a fresh journal beside the live one,
        /// fsync it, and rename it into place — the same atomic
        /// write-rename discipline as [`write_atomic`](super::write_atomic).
        /// The handle continues appending to the new file.
        pub fn compact(&mut self, records: &[&[u8]]) -> Result<(), CkptError> {
            let tmp = self.path.with_extension("journal.tmp");
            let mut out = Vec::new();
            for r in records {
                frame::write_frame(&mut out, r);
            }
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&out)?;
                f.sync_data()?;
            }
            std::fs::rename(&tmp, &self.path)?;
            self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
            Ok(())
        }

        /// The journal file path.
        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn tmp(tag: &str) -> PathBuf {
            let d = std::env::temp_dir()
                .join(format!("fasda-journal-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).unwrap();
            d.join("q.journal")
        }

        #[test]
        fn append_replay_roundtrip() {
            let path = tmp("roundtrip");
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(b"one").unwrap();
            w.append(b"").unwrap();
            w.append(&[0xAB; 4096]).unwrap();
            let r = replay(&path).unwrap();
            assert_eq!(r.records.len(), 3);
            assert_eq!(r.records[0], b"one");
            assert_eq!(r.records[1], b"");
            assert_eq!(r.records[2], vec![0xAB; 4096]);
            assert_eq!(r.torn_bytes, 0);
        }

        #[test]
        fn missing_file_is_empty_journal() {
            let r = replay(&tmp("missing")).unwrap();
            assert!(r.records.is_empty());
            assert_eq!(r.torn_bytes, 0);
        }

        #[test]
        fn torn_tail_is_discarded_not_fatal() {
            let path = tmp("torn");
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"beta").unwrap();
            let full = std::fs::read(&path).unwrap();
            // Cut anywhere strictly inside the second frame: the first
            // record must survive, the tail must be reported torn.
            let first_len = frame::HEADER_BYTES + 5;
            for cut in first_len + 1..full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let r = replay(&path).unwrap();
                assert_eq!(r.records, vec![b"alpha".to_vec()], "cut at {cut}");
                assert_eq!(r.torn_bytes, (cut - first_len) as u64);
            }
        }

        #[test]
        fn mid_file_corruption_is_fatal() {
            let path = tmp("corrupt");
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"beta").unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            // Flip a payload bit inside the *first* (acknowledged,
            // fully framed) record.
            bytes[frame::HEADER_BYTES] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                replay(&path),
                Err(CkptError::CrcMismatch { .. })
            ));
        }

        #[test]
        fn compact_then_append_continues() {
            let path = tmp("compact");
            let mut w = JournalWriter::open(&path).unwrap();
            for i in 0..10u8 {
                w.append(&[i]).unwrap();
            }
            w.compact(&[b"snapshot-cursor"]).unwrap();
            w.append(b"after").unwrap();
            let r = replay(&path).unwrap();
            assert_eq!(r.records, vec![b"snapshot-cursor".to_vec(), b"after".to_vec()]);
        }
    }
}

pub mod policy {
    //! Checkpoint-interval economics: the Young–Daly optimum and the
    //! data-loss / availability forecast it implies.
    //!
    //! The model: checkpointing every `k` steps costs `save_cost` once
    //! per segment, and a failure arriving at rate `λ` per step forces
    //! a replay of everything since the last checkpoint — `(k-1)/2`
    //! steps in expectation (failures land uniformly inside a segment;
    //! the checkpointed step itself is safe) plus a fixed
    //! `restore_cost`. Per useful step, the overhead fraction is
    //!
    //! ```text
    //! f(k) = save_cost/(k·step_cost) + λ·((k-1)/2 + restore_cost/step_cost)
    //! ```
    //!
    //! which is minimized at the Young–Daly interval
    //! `k* = sqrt(2·save_cost/(λ·step_cost))`. Costs are in any common
    //! unit (a run measures them in milliseconds, in the `host` object of
    //! its heartbeat stream's `final` record); the failure rate is per
    //! simulated step.

    /// Measured costs and the assumed failure process.
    #[derive(Clone, Copy, Debug)]
    pub struct PolicyInput {
        /// Cost of serializing + writing one checkpoint.
        pub save_cost: f64,
        /// Cost of restoring one checkpoint after a failure.
        pub restore_cost: f64,
        /// Cost of simulating one step.
        pub step_cost: f64,
        /// Failures per simulated step (λ).
        pub failure_rate: f64,
    }

    /// What a given checkpoint interval buys.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct PolicyForecast {
        /// The interval evaluated, in steps.
        pub interval_steps: u64,
        /// Checkpoint-write overhead as a fraction of useful compute.
        pub save_overhead: f64,
        /// Steps of trajectory lost (and replayed) per failure,
        /// `(k-1)/2` in expectation.
        pub expected_loss_steps: f64,
        /// Replay + restore overhead as a fraction of useful compute.
        pub rework_overhead: f64,
        /// Useful fraction of total spend:
        /// `1 / (1 + save_overhead + rework_overhead)`.
        pub availability: f64,
    }

    impl PolicyInput {
        /// The one range check: every input finite and non-negative,
        /// `step_cost > 0`. Callers taking costs from outside the
        /// program report the `Err`; the methods below panic on it.
        pub fn check(&self) -> Result<(), String> {
            for (name, v) in [
                ("save cost", self.save_cost),
                ("restore cost", self.restore_cost),
                ("step cost", self.step_cost),
                ("failure rate", self.failure_rate),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("policy {name} must be finite and non-negative, got {v}"));
                }
            }
            if self.step_cost == 0.0 {
                return Err("policy step cost must be > 0".into());
            }
            Ok(())
        }

        fn validate(&self) {
            if let Err(e) = self.check() {
                panic!("{e}");
            }
        }

        /// The unrounded Young–Daly interval
        /// `sqrt(2·save_cost/(λ·step_cost))`; infinite when failures
        /// never happen (never checkpoint) and clamped to 1 from below
        /// (checkpointing more than once per step is meaningless).
        pub fn young_daly_interval(&self) -> f64 {
            self.validate();
            if self.failure_rate <= 0.0 {
                return f64::INFINITY;
            }
            (2.0 * self.save_cost / (self.failure_rate * self.step_cost))
                .sqrt()
                .max(1.0)
        }

        /// Forecast the overheads of checkpointing every `k` steps.
        pub fn forecast(&self, k: u64) -> PolicyForecast {
            self.validate();
            let k = k.max(1);
            let expected_loss_steps = (k - 1) as f64 / 2.0;
            let save_overhead = self.save_cost / (k as f64 * self.step_cost);
            let rework_overhead = self.failure_rate
                * (expected_loss_steps + self.restore_cost / self.step_cost);
            PolicyForecast {
                interval_steps: k,
                save_overhead,
                expected_loss_steps,
                rework_overhead,
                availability: 1.0 / (1.0 + save_overhead + rework_overhead),
            }
        }

        /// The best whole-step interval: the neighbor of the Young–Daly
        /// optimum with the higher forecast availability.
        pub fn optimize(&self) -> PolicyForecast {
            let k = self.young_daly_interval();
            if k.is_infinite() || k >= u64::MAX as f64 {
                return self.forecast(u64::MAX);
            }
            let lo = self.forecast(k.floor() as u64);
            let hi = self.forecast(k.ceil() as u64);
            if lo.availability >= hi.availability {
                lo
            } else {
                hi
            }
        }
    }
}

/// Bounded retention: keep the newest `keep` checkpoints, delete the
/// rest. `keep == 0` keeps everything.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<(), CkptError> {
    if keep == 0 {
        return Ok(());
    }
    let all = list_checkpoints(dir)?;
    if all.len() > keep {
        for (_, path) in &all[..all.len() - keep] {
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let back = T::load(&mut r).expect("load");
        assert_eq!(&back, v);
        assert!(r.is_exhausted(), "trailing bytes after {v:?}");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&-1i64);
        roundtrip(&i32::MIN);
        roundtrip(&f32::NEG_INFINITY);
        roundtrip(&-0.0f64);
        roundtrip(&true);
        roundtrip(&usize::MAX);
        roundtrip(&String::from("hello çkpt"));
        roundtrip(&Some(42u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u16, 2, 3]);
        roundtrip(&VecDeque::from(vec![9u64, 8, 7]));
        roundtrip(&(1u8, 2u64));
        roundtrip(&(1u8, 2u64, String::from("x")));
        roundtrip(&[5u32; 4]);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u16,
        b: Vec<u8>,
    }
    persist_struct!(Pair { b, a });

    #[derive(Debug, PartialEq)]
    struct Wrap(u32, i8);
    persist_struct!(Wrap { 0, 1 });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Dot(u8, Option<u32>),
        Rect { w: u16, h: Box<u64> },
    }
    persist_enum!(Shape { 0 => Empty, 1 => Dot(x, y), 5 => Rect { w, h } });

    fn bytes_of<T: Persist>(v: &T) -> Vec<u8> {
        let mut w = Writer::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn declared_struct_roundtrips_in_listed_order() {
        let p = Pair { a: 0x0102, b: vec![9] };
        roundtrip(&p);
        // `b` is listed first, so it leads the bytes.
        assert_eq!(bytes_of(&p), [1, 0, 0, 0, 0, 0, 0, 0, 9, 0x02, 0x01]);
        roundtrip(&Wrap(u32::MAX, -2));
        assert_eq!(bytes_of(&Wrap(1, -1)), [1, 0, 0, 0, 0xFF]);
    }

    #[test]
    fn declared_enum_roundtrips_every_variant_kind() {
        roundtrip(&Shape::Empty);
        roundtrip(&Shape::Dot(7, Some(3)));
        roundtrip(&Shape::Rect { w: 4, h: Box::new(u64::MAX) });
        assert_eq!(bytes_of(&Shape::Empty), [0]);
        assert_eq!(bytes_of(&Shape::Dot(7, None)), [1, 7, 0]);
        assert_eq!(bytes_of(&Shape::Rect { w: 1, h: Box::new(2) }), [5, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn declared_enum_refuses_an_unknown_tag_by_name() {
        for tag in [2u8, 4, 6, 255] {
            match Shape::load(&mut Reader::new(&[tag, 0, 0, 0], "sec")) {
                Err(CkptError::Malformed { section, what }) => {
                    assert_eq!(section, "sec");
                    assert_eq!(what, format!("unknown Shape tag {tag}"));
                }
                other => panic!("tag {tag} loaded as {other:?}"),
            }
        }
    }

    #[test]
    fn declared_formats_report_a_short_payload_as_truncated() {
        let rect = bytes_of(&Shape::Rect { w: 1, h: Box::new(2) });
        let pair = bytes_of(&Pair { a: 1, b: vec![1, 2] });
        for cut in 0..rect.len() {
            assert!(
                matches!(Shape::load(&mut Reader::new(&rect[..cut], "s")), Err(CkptError::Truncated { .. })),
                "Rect cut at {cut}"
            );
        }
        for cut in 0..pair.len() {
            assert!(
                matches!(Pair::load(&mut Reader::new(&pair[..cut], "s")), Err(CkptError::Truncated { .. })),
                "Pair cut at {cut}"
            );
        }
    }

    #[test]
    fn float_bit_patterns_survive() {
        // NaN payloads must round-trip bit-exactly, not just value-equal.
        let weird = f32::from_bits(0x7FC0_1234);
        let mut w = Writer::new();
        weird.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(f32::load(&mut r).unwrap().to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn hash_containers_serialize_sorted() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..32u64 {
            a.insert(k, k * 3);
        }
        for k in (0..32u64).rev() {
            b.insert(k, k * 3);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(
            wa.into_bytes(),
            wb.into_bytes(),
            "same logical map must give same bytes regardless of insertion order"
        );
        roundtrip(&a);
        let set: HashSet<u32> = (0..17).collect();
        roundtrip(&set);
        let bt: BTreeMap<String, u64> = [("b".into(), 2u64), ("a".into(), 1)].into();
        roundtrip(&bt);
        let bs: BTreeSet<i32> = [-3, 0, 9].into();
        roundtrip(&bs);
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "sec");
            match Vec::<u64>::load(&mut r) {
                Err(CkptError::Truncated { section }) => assert_eq!(section, "sec"),
                Err(e) => panic!("expected Truncated, got {e}"),
                Ok(_) => panic!("truncated stream decoded at cut {cut}"),
            }
        }
    }

    #[test]
    fn bogus_length_is_not_an_allocation_bomb() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "sec");
        assert!(Vec::<u8>::load(&mut r).is_err());
    }

    #[test]
    fn container_roundtrip_and_crc() {
        let mut c = ContainerWriter::new();
        let mut w = Writer::new();
        w.put_u64(0xDEAD_BEEF);
        c.push("alpha", w);
        let mut w = Writer::new();
        w.put_str("payload two");
        c.push("beta", w);
        let bytes = c.finish();

        let parsed = Container::parse(&bytes).expect("parse");
        assert_eq!(
            parsed.section_names().collect::<Vec<_>>(),
            vec!["alpha", "beta"]
        );
        let mut r = parsed.reader("alpha").unwrap();
        assert_eq!(r.get_u64().unwrap(), 0xDEAD_BEEF);
        assert!(matches!(
            parsed.reader("gamma"),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn corrupted_container_names_the_bad_section() {
        let mut c = ContainerWriter::new();
        let mut w = Writer::new();
        w.put_u64(1);
        c.push("good", w);
        let mut w = Writer::new();
        w.put_u64(2);
        c.push("bad", w);
        let mut bytes = c.finish();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // flip a bit in the last section's payload
        match Container::parse(&bytes) {
            Err(CkptError::CrcMismatch { section, .. }) => assert_eq!(section, "bad"),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_container_is_rejected() {
        let mut c = ContainerWriter::new();
        let mut w = Writer::new();
        w.put_bytes(&[0xAB; 64]);
        c.push("only", w);
        let bytes = c.finish();
        for cut in 0..bytes.len() {
            assert!(
                Container::parse(&bytes[..cut]).is_err(),
                "prefix of length {cut} parsed"
            );
        }
    }

    #[test]
    fn a_section_count_the_bytes_cannot_frame_is_truncated() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 12);
        assert!(matches!(Container::parse(&bytes), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn bad_magic_and_version() {
        assert_eq!(Container::parse(b"NOPE").unwrap_err(), CkptError::BadMagic);
        let mut bytes = ContainerWriter::new().finish();
        bytes[4] = 0xFF; // bump version
        assert!(matches!(
            Container::parse(&bytes),
            Err(CkptError::BadVersion { .. })
        ));
    }

    #[test]
    fn file_naming_and_retention() {
        let dir = std::env::temp_dir().join(format!("fasda-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for step in [3u64, 1, 7, 5] {
            write_atomic(&checkpoint_path(&dir, step), b"x").unwrap();
        }
        let steps: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(steps, vec![1, 3, 5, 7]);
        assert_eq!(
            checkpoint_step(&latest_checkpoint(&dir).unwrap().unwrap()),
            Some(7)
        );
        prune_checkpoints(&dir, 2).unwrap();
        let steps: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(steps, vec![5, 7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // The incremental form over a split buffer lands on the same word.
        let state = crc32_update(crc32_update(0xFFFF_FFFF, b"1234"), b"56789");
        assert_eq!(!state, 0xCBF4_3926);
    }

    #[test]
    fn young_daly_interval_matches_closed_form() {
        // save 8, step 1, λ = 1/256: k* = sqrt(2*8/(1/256)) = 64.
        let input = policy::PolicyInput {
            save_cost: 8.0,
            restore_cost: 4.0,
            step_cost: 1.0,
            failure_rate: 1.0 / 256.0,
        };
        assert!((input.young_daly_interval() - 64.0).abs() < 1e-9);
        let best = input.optimize();
        assert_eq!(best.interval_steps, 64);
        // The optimum beats both doubling and halving the interval.
        assert!(best.availability > input.forecast(32).availability);
        assert!(best.availability > input.forecast(128).availability);
        // Expected loss per failure is (k-1)/2 steps.
        assert!((best.expected_loss_steps - 31.5).abs() < 1e-9);
    }

    #[test]
    fn policy_degenerate_cases() {
        let never_fails = policy::PolicyInput {
            save_cost: 8.0,
            restore_cost: 4.0,
            step_cost: 1.0,
            failure_rate: 0.0,
        };
        assert!(never_fails.young_daly_interval().is_infinite());
        // No failures: the optimizer effectively never checkpoints and
        // availability approaches 1.
        assert!(never_fails.optimize().availability > 0.999_999);
        // Free checkpoints: checkpoint every step, losing nothing.
        let free_saves = policy::PolicyInput {
            save_cost: 0.0,
            restore_cost: 0.0,
            step_cost: 1.0,
            failure_rate: 0.01,
        };
        let best = free_saves.optimize();
        assert_eq!(best.interval_steps, 1);
        assert_eq!(best.expected_loss_steps, 0.0);
        // Out-of-range inputs are an Err to report, NaN and inf included.
        assert!(free_saves.check().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(policy::PolicyInput { save_cost: bad, ..free_saves }.check().is_err());
            assert!(policy::PolicyInput { restore_cost: bad, ..free_saves }.check().is_err());
            assert!(policy::PolicyInput { step_cost: bad, ..free_saves }.check().is_err());
            assert!(policy::PolicyInput { failure_rate: bad, ..free_saves }.check().is_err());
        }
        assert!(policy::PolicyInput { step_cost: 0.0, ..free_saves }.check().is_err());
    }
}
