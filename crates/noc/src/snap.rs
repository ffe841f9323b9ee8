//! Flat binary state snapshots for checkpoint/restore.
//!
//! Every component that carries mutable run-state (mesh link backlogs,
//! DRAM bank timers, predictor tables, per-line replacement metadata …)
//! implements [`Persist`]: `save` appends the state to a [`StateWriter`]
//! as little-endian bytes, `load` reads it back from a [`StateReader`]
//! into an *already-shaped* value. Shapes (vector lengths, table sizes)
//! come from configuration, not from the snapshot: restore first rebuilds
//! the component from its config, then loads the bytes into it, and the
//! codec refuses a snapshot whose shape differs (see `Vec<T>`'s
//! [`Persist`] impl). The container layer (`drishti-ckpt/v2` in
//! `crates/sim`) guards every section with an fnv1a64 checksum and a
//! config hash; `load` defends against what the container cannot rule
//! out — a checksummed section that is short or mis-shaped — via typed
//! [`SnapError`]s, never panics.
//!
//! The encoding is deliberately boring: fixed-width little-endian
//! integers, `f64` as IEEE-754 bits, `u64` length prefixes, hash maps
//! sorted by key. Boring means *canonical*: the same state always
//! serialises to the same bytes, which is what lets the sweep journal and
//! the resume gate byte-compare artifacts.
//!
//! This lives in `drishti-noc` because it is the one crate every other
//! state-bearing crate (`mem`, `core`, `policies`, `sim`) already depends
//! on. The [`impl_persist_fields!`](crate::impl_persist_fields) macro
//! generates field-by-field impls and is meant to be invoked *inside* the
//! defining module, where private fields are visible.

use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Everything that can go wrong decoding a state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before `what` could be decoded.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A decoded value for `what` is out of range or inconsistent with
    /// the component being restored.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Why the value was rejected.
        detail: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { what } => {
                write!(f, "snapshot truncated while decoding {what}")
            }
            SnapError::Invalid { what, detail } => {
                write!(f, "snapshot field {what} invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink state is serialised into.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer into its byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over a byte buffer state is deserialised from.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a `u64` length prefix, rejecting lengths that cannot possibly
    /// fit in the remaining bytes (every element encodes to ≥ 1 byte), so
    /// a corrupt length cannot trigger a huge allocation.
    pub fn take_len(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let n = self.take_u64(what)?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Invalid {
                what,
                detail: format!("length {n} exceeds {} remaining bytes", self.remaining()),
            });
        }
        Ok(n as usize)
    }

    /// Read `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        self.take(n, what)
    }
}

/// A component whose mutable run-state round-trips through flat bytes.
///
/// `load` is called on a value whose *shape* (table sizes, vector
/// lengths) was already rebuilt from configuration; it overwrites the
/// run-state in place. The contract every implementation must keep:
/// `save` then `load` on an identically-configured value reproduces the
/// original bit-for-bit, and `save` is canonical (equal states produce
/// equal bytes).
pub trait Persist {
    /// Append this value's state to `w`.
    fn save(&self, w: &mut StateWriter);

    /// Overwrite this value's state from `r`.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError>;
}

macro_rules! persist_int {
    ($ty:ty, $take:ident, $name:literal) => {
        impl Persist for $ty {
            fn save(&self, w: &mut StateWriter) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
                *self = <$ty>::from_le_bytes(
                    r.take_bytes(std::mem::size_of::<$ty>(), $name)?
                        .try_into()
                        .unwrap(),
                );
                Ok(())
            }
        }
    };
}

persist_int!(u8, take_u8, "u8");
persist_int!(u16, take_u16, "u16");
persist_int!(u32, take_u32, "u32");
persist_int!(u64, take_u64, "u64");
persist_int!(i8, take_u8, "i8");
persist_int!(i16, take_u16, "i16");
persist_int!(i32, take_u32, "i32");
persist_int!(i64, take_u64, "i64");

impl Persist for usize {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(*self as u64);
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let v = r.take_u64("usize")?;
        *self = usize::try_from(v).map_err(|_| SnapError::Invalid {
            what: "usize",
            detail: format!("{v} does not fit the host word size"),
        })?;
        Ok(())
    }
}

impl Persist for bool {
    fn save(&self, w: &mut StateWriter) {
        w.put_u8(u8::from(*self));
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        match r.take_u8("bool")? {
            0 => *self = false,
            1 => *self = true,
            v => {
                return Err(SnapError::Invalid {
                    what: "bool",
                    detail: format!("expected 0 or 1, got {v}"),
                })
            }
        }
        Ok(())
    }
}

impl Persist for f64 {
    /// IEEE-754 bit pattern, so NaN payloads and signed zeros round-trip
    /// exactly and equal states stay byte-equal.
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        *self = f64::from_bits(r.take_u64("f64")?);
        Ok(())
    }
}

impl Persist for String {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len("string length")?;
        let bytes = r.take_bytes(n, "string bytes")?;
        *self = String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid {
            what: "string bytes",
            detail: "not valid UTF-8".into(),
        })?;
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    /// The shape rule: restore always targets a freshly built value, so a
    /// non-empty vector's length comes from configuration and a snapshot
    /// of any other length is refused. An empty vector is growable
    /// run-state (a captured stream, collected epochs) and takes the
    /// snapshot's length. Elements load in place, so configuration-built
    /// state their own `load` preserves (a selector's variant) survives.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len("vec length")?;
        if self.is_empty() {
            self.resize_with(n, T::default);
        } else if n != self.len() {
            return Err(SnapError::Invalid {
                what: "vec length",
                detail: format!(
                    "snapshot holds {n} elements, configuration has {}",
                    self.len()
                ),
            });
        }
        for v in self.iter_mut() {
            v.load(r)?;
        }
        Ok(())
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len("deque length")?;
        // Same in-place rule as `Vec<T>`: preserve existing elements when
        // the count matches so their non-persisted state survives.
        if n == self.len() {
            for v in self.iter_mut() {
                v.load(r)?;
            }
            return Ok(());
        }
        self.clear();
        for _ in 0..n {
            let mut v = T::default();
            v.load(r)?;
            self.push_back(v);
        }
        Ok(())
    }
}

impl<K, V> Persist for HashMap<K, V>
where
    K: Persist + Default + Ord + std::hash::Hash + Eq + Clone,
    V: Persist + Default,
{
    /// Entries sorted by key, so equal maps always produce equal bytes.
    fn save(&self, w: &mut StateWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.put_u64(self.len() as u64);
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len("map length")?;
        self.clear();
        for _ in 0..n {
            let mut k = K::default();
            k.load(r)?;
            let mut v = V::default();
            v.load(r)?;
            if self.insert(k, v).is_some() {
                return Err(SnapError::Invalid {
                    what: "map entry",
                    detail: "duplicate key".into(),
                });
            }
        }
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, w: &mut StateWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        match r.take_u8("option tag")? {
            0 => *self = None,
            // In-place rule again: an existing `Some` keeps its element so
            // non-persisted state survives the load.
            1 => match self {
                Some(v) => v.load(r)?,
                None => {
                    let mut v = T::default();
                    v.load(r)?;
                    *self = Some(v);
                }
            },
            t => {
                return Err(SnapError::Invalid {
                    what: "option tag",
                    detail: format!("expected 0 or 1, got {t}"),
                })
            }
        }
        Ok(())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut StateWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        for v in self.iter_mut() {
            v.load(r)?;
        }
        Ok(())
    }
}

macro_rules! persist_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn save(&self, w: &mut StateWriter) {
                $(self.$idx.save(w);)+
            }
            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
                $(self.$idx.load(r)?;)+
                Ok(())
            }
        }
    };
}

persist_tuple!(A: 0, B: 1);
persist_tuple!(A: 0, B: 1, C: 2);
persist_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Generate a [`Persist`](crate::snap::Persist) impl that saves/loads the
/// listed fields in order. Invoke inside the module that defines the type
/// (private fields are referenced directly):
///
/// ```
/// #[derive(Default)]
/// struct Timer { elapsed: u64, armed: bool }
/// drishti_noc::impl_persist_fields!(Timer { elapsed, armed });
///
/// let mut w = drishti_noc::snap::StateWriter::new();
/// drishti_noc::snap::Persist::save(&Timer { elapsed: 7, armed: true }, &mut w);
/// let mut t = Timer::default();
/// let mut r = drishti_noc::snap::StateReader::new(w.bytes());
/// drishti_noc::snap::Persist::load(&mut t, &mut r).unwrap();
/// assert_eq!(t.elapsed, 7);
/// ```
#[macro_export]
macro_rules! impl_persist_fields {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::snap::Persist for $ty {
            fn save(&self, w: &mut $crate::snap::StateWriter) {
                $($crate::snap::Persist::save(&self.$field, w);)+
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::StateReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                $($crate::snap::Persist::load(&mut self.$field, r)?;)+
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + Default + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = StateWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut out = T::default();
        let mut r = StateReader::new(&bytes);
        out.load(&mut r).unwrap();
        assert_eq!(&out, v);
        assert_eq!(r.remaining(), 0, "decoder must consume every byte");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0xABu8);
        round_trip(&0xABCDu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&(-5i8));
        round_trip(&(-70_000i32));
        round_trip(&i64::MIN);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&std::f64::consts::PI);
        round_trip(&-0.0f64);
        round_trip(&"predictor".to_string());
        round_trip(&String::new());
    }

    #[test]
    fn f64_nan_bits_survive() {
        let v = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = StateWriter::new();
        v.save(&mut w);
        let mut out = 0.0f64;
        out.load(&mut StateReader::new(w.bytes())).unwrap();
        assert_eq!(out.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip(&VecDeque::from([9u64, 8, 7]));
        round_trip(&Some(42u32));
        round_trip(&Option::<u32>::None);
        round_trip(&[1u64, 2, 3]);
        round_trip(&(7u64, "x".to_string()));
        round_trip(&(1u64, 2u16, 3u8, 4u8));
        let mut m = HashMap::new();
        m.insert(3u64, 30u64);
        m.insert(1, 10);
        m.insert(2, 20);
        round_trip(&m);
    }

    #[test]
    fn map_bytes_are_canonical() {
        // Same entries inserted in different orders must serialise
        // identically — the sweep journal byte-compares snapshots.
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..32u64 {
            a.insert(k, k * 3);
        }
        for k in (0..32u64).rev() {
            b.insert(k, k * 3);
        }
        let (mut wa, mut wb) = (StateWriter::new(), StateWriter::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.bytes(), wb.bytes());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = StateWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut out = Vec::<u64>::new();
        let err = out
            .load(&mut StateReader::new(&bytes[..bytes.len() - 1]))
            .unwrap_err();
        assert!(matches!(err, SnapError::Truncated { .. }), "{err}");
    }

    #[test]
    fn length_mismatch_against_a_configured_vec_is_refused() {
        let mut w = StateWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let mut live = vec![0u64; 2];
        let err = live.load(&mut StateReader::new(w.bytes())).unwrap_err();
        assert!(
            matches!(
                err,
                SnapError::Invalid {
                    what: "vec length",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX); // length prefix promising 2^64-1 elements
        let mut out = Vec::<u64>::new();
        let err = out.load(&mut StateReader::new(w.bytes())).unwrap_err();
        assert!(
            matches!(
                err,
                SnapError::Invalid {
                    what: "vec length",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_bool_and_option_tags_are_rejected() {
        let mut out = false;
        let err = out.load(&mut StateReader::new(&[2])).unwrap_err();
        assert!(matches!(err, SnapError::Invalid { what: "bool", .. }));
        let mut opt = Option::<u8>::None;
        let err = opt.load(&mut StateReader::new(&[9])).unwrap_err();
        assert!(matches!(
            err,
            SnapError::Invalid {
                what: "option tag",
                ..
            }
        ));
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut w = StateWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0xff, 0xfe]);
        let mut s = String::new();
        let err = s.load(&mut StateReader::new(w.bytes())).unwrap_err();
        assert!(matches!(err, SnapError::Invalid { .. }), "{err}");
    }

    #[test]
    fn duplicate_map_keys_are_rejected() {
        let mut w = StateWriter::new();
        w.put_u64(2);
        1u64.save(&mut w);
        10u64.save(&mut w);
        1u64.save(&mut w);
        11u64.save(&mut w);
        let mut m = HashMap::<u64, u64>::new();
        let err = m.load(&mut StateReader::new(w.bytes())).unwrap_err();
        assert!(matches!(
            err,
            SnapError::Invalid {
                what: "map entry",
                ..
            }
        ));
    }

    #[test]
    fn errors_display_with_context() {
        let e = SnapError::Truncated { what: "dram bank" };
        assert!(e.to_string().contains("dram bank"));
        let e = SnapError::Invalid {
            what: "bool",
            detail: "expected 0 or 1, got 7".into(),
        };
        assert!(e.to_string().contains("bool"));
        assert!(e.to_string().contains("got 7"));
    }

    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        a: u64,
        b: Vec<u8>,
        c: bool,
    }
    crate::impl_persist_fields!(Demo { a, b, c });

    #[test]
    fn field_macro_round_trips_struct() {
        round_trip(&Demo {
            a: 99,
            b: vec![1, 2, 3],
            c: true,
        });
    }
}
