//! VSC2: the compressed, zone-mapped, appendable on-disk dataset format.
//!
//! The one format the catalog stores: one directory per dataset holding
//! `manifest.json` plus one column file per column. Its durability contract
//! is manifest-last writes, per-payload digests, and a typed error on any
//! corruption — a manifest carrying any other format tag included. At 10M+
//! rows the bytes on disk and the cold-start decode dominate, so:
//!
//! * **Row groups.** Every column is split into fixed-size row groups
//!   ([`viewseeker_dataset::zones::DEFAULT_GROUP_ROWS`] rows). Each
//!   `(column, group)` chunk is encoded independently and carries a
//!   [`ColumnZone`] summary (min/max, NaN count, distinct bound) in the
//!   manifest — the zone maps the fused executor uses to skip row groups a
//!   DQ predicate provably excludes.
//! * **Per-chunk encodings**, chosen by smallest output: `raw` (f64 bit
//!   patterns, 8-byte aligned for zero-copy), `rle` (run-length),
//!   `dict` (per-chunk value dictionary + bit-packed codes) for numeric
//!   columns; `codes` (bit-packed dictionary codes) and `rlecodes` for
//!   categorical columns.
//! * **Zero-copy cold starts.** Column files keep every chunk 8-byte
//!   aligned; a numeric column whose chunks are all `raw` and contiguous is
//!   served straight out of a read-only file mapping ([`crate::map`])
//!   without decoding. Validation still runs: per-chunk digests (a
//!   word-at-a-time FNV-1a) plus a recomputation of every zone summary
//!   against the decoded (or mapped) data, so a bit flip in either the
//!   payload or the manifest's zone maps is a typed [`CatalogError::Corrupt`].
//! * **Atomic appends.** New rows only ever *add* bytes: fresh chunks are
//!   appended to the column files (rewriting the last, partial row group as
//!   new bytes at the end — its old bytes become dead space), then the
//!   manifest is swapped via write-to-temp + rename. A crash mid-append
//!   leaves the old manifest pointing at the old prefix, which still loads
//!   bit-identically; orphaned trailing bytes are ignored. Categorical
//!   dictionaries are append-only, so existing codes never change meaning.
//!
//! A load does not re-encode the table to verify `table_checksum` (that is
//! exactly the cold-start cost the format exists to avoid); integrity rests
//! on the per-chunk digests and zone recomputation instead.
//! `table_checksum` ([`crate::digest`]) is computed at save/append time and
//! is the identity the catalog and session snapshots compare. Appended
//! datasets trade the zero-copy fast path for append-only atomicity until
//! they are re-saved.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use viewseeker_dataset::schema::{AttributeRole, ColumnType};
use viewseeker_dataset::zones::DEFAULT_GROUP_ROWS;
use viewseeker_dataset::{Column, ColumnZone, Schema, Table, ZoneMaps};

use crate::digest::{hex, table_checksum, Fnv64};
#[cfg(target_endian = "little")]
use crate::map::MappedF64;
use crate::map::Mapping;
use crate::CatalogError;

/// Format tag VSC2 manifests carry.
pub const FORMAT: &str = "VSC2";

/// Manifest file name inside a dataset directory.
pub const MANIFEST: &str = "manifest.json";

/// Magic prefix of every VSC2 column file (8 bytes, keeping the first chunk
/// 8-byte aligned).
pub const COLUMN_MAGIC: &[u8; 8] = b"VSC2COL\0";

/// Largest per-chunk numeric dictionary the encoder will build.
const DICT_MAX: usize = 1 << 16;

/// The file name of column `index`.
#[must_use]
pub fn column_file(index: usize) -> String {
    format!("col_{index:05}.vs2")
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST)
}

/// Whether `dir` holds a committed dataset (a manifest exists).
#[must_use]
pub fn exists(dir: &Path) -> bool {
    manifest_path(dir).is_file()
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One encoded `(column, row group)` chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMeta {
    /// `"raw"`, `"rle"`, `"dict"`, `"codes"`, or `"rlecodes"`.
    pub encoding: String,
    /// Byte offset of the payload inside the column file (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub bytes: u64,
    /// Word-FNV digest ([`fnv64_words`]) of the payload, lowercase hex.
    pub checksum: String,
    /// Zone summary of the rows this chunk encodes.
    pub zone: ColumnZone,
}

/// One column of a VSC2 dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest2Column {
    /// Column name.
    pub name: String,
    /// `"categorical"` or `"numeric"`.
    pub kind: String,
    /// `"dimension"` or `"measure"`.
    pub role: String,
    /// Column file name (always [`column_file`] of the column's index).
    pub file: String,
    /// Append-only global dictionary (categorical columns; empty otherwise).
    pub dictionary: Vec<String>,
    /// One chunk per row group, ascending.
    pub chunks: Vec<ChunkMeta>,
}

/// The VSC2 manifest: format tag, shape, and per-chunk metadata. Written
/// last (atomically, via temp + rename), so a directory with a VSC2
/// manifest always describes a complete, loadable dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest2 {
    /// Always [`FORMAT`].
    pub format: String,
    /// Total rows.
    pub rows: u64,
    /// Rows per row group (the final group may be shorter).
    pub group_rows: u64,
    /// Digest of the full table ([`table_checksum`]), lowercase hex.
    /// Computed at save/append time; loads verify per-chunk digests and
    /// zone summaries instead of re-encoding the table.
    pub table_checksum: String,
    /// Per-column metadata.
    pub columns: Vec<Manifest2Column>,
}

impl Manifest2 {
    /// Total payload bytes across every chunk (dead bytes from rewritten
    /// partial groups excluded).
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|c| c.chunks.iter().map(|ch| ch.bytes).sum::<u64>())
            .sum()
    }

    /// Number of row groups the manifest describes.
    #[must_use]
    pub fn group_count(&self) -> usize {
        let rows = usize::try_from(self.rows).unwrap_or(usize::MAX);
        let group_rows = usize::try_from(self.group_rows).unwrap_or(usize::MAX);
        if group_rows == 0 {
            0
        } else {
            rows.div_ceil(group_rows)
        }
    }

    /// Rebuilds the schema the manifest describes.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Corrupt`] for unknown kind/role tags or invalid
    /// schema shapes.
    pub fn schema(&self) -> Result<Schema, CatalogError> {
        let metas = self
            .columns
            .iter()
            .map(|c| {
                let column_type = match c.kind.as_str() {
                    "categorical" => ColumnType::Categorical,
                    "numeric" => ColumnType::Numeric,
                    other => {
                        return Err(CatalogError::Corrupt(format!(
                            "unknown column kind {other:?} in manifest"
                        )))
                    }
                };
                let role = match c.role.as_str() {
                    "dimension" => AttributeRole::Dimension,
                    "measure" => AttributeRole::Measure,
                    other => {
                        return Err(CatalogError::Corrupt(format!(
                            "unknown column role {other:?} in manifest"
                        )))
                    }
                };
                Ok(viewseeker_dataset::schema::ColumnMeta {
                    name: c.name.clone(),
                    column_type,
                    role,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Schema::new(metas).map_err(|e| CatalogError::Corrupt(format!("manifest schema: {e}")))
    }

    /// Assembles the manifest's zone summaries into executor-ready
    /// [`ZoneMaps`].
    ///
    /// # Errors
    ///
    /// [`CatalogError::Corrupt`] when any column's chunk count disagrees
    /// with the manifest's row/group shape.
    pub fn zone_maps(&self) -> Result<ZoneMaps, CatalogError> {
        let n_groups = self.group_count();
        let mut groups = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let mut zones = Vec::with_capacity(self.columns.len());
            for c in &self.columns {
                let chunk = c.chunks.get(g).ok_or_else(|| {
                    CatalogError::Corrupt(format!(
                        "column {:?} has {} chunks, expected {n_groups}",
                        c.name,
                        c.chunks.len()
                    ))
                })?;
                zones.push(chunk.zone);
            }
            groups.push(zones);
        }
        Ok(ZoneMaps {
            group_rows: usize::try_from(self.group_rows)
                .map_err(|_| CatalogError::Corrupt("group_rows overflows".into()))?,
            rows: usize::try_from(self.rows)
                .map_err(|_| CatalogError::Corrupt("row count overflows".into()))?,
            groups,
        })
    }
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

/// FNV-1a folded a 64-bit word at a time (little-endian), byte-wise over
/// the tail. ~8× fewer multiplies than byte-wise FNV — the digest that
/// makes verifying a mapped 80MB column a fast single pass. Distinct from
/// the byte-wise [`crate::digest::fnv64`]; the two are not comparable.
#[must_use]
pub fn fnv64_words(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = Fnv64::default().finish(); // the FNV-1a offset basis
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Bits needed to represent codes `0..n` (at least 1).
fn bits_for(n: u64) -> u32 {
    match n {
        0 | 1 => 1,
        n => 64 - (n - 1).leading_zeros(),
    }
}

/// Packs `codes` at `width` bits each into a little-endian bit stream.
fn pack_codes(codes: &[u32], width: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity((codes.len() * width as usize).div_ceil(8));
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &code in codes {
        acc |= u64::from(code) << bits;
        bits += width;
        while bits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push((acc & 0xff) as u8);
    }
    out
}

/// Unpacks `n` codes of `width` bits from a little-endian bit stream,
/// requiring the stream to be exactly the packed length.
/// Unpacks `n` bit-packed dictionary codes straight into `out` as their
/// dictionary values — the fused form of [`unpack_codes`] + translate,
/// skipping the intermediate code vector (measurable on multi-million-row
/// cold starts).
fn unpack_dict(
    bytes: &[u8],
    width: u32,
    n: usize,
    dict: &[f64],
    out: &mut Vec<f64>,
    what: &str,
) -> Result<(), CatalogError> {
    if !(1..=32).contains(&width) {
        return Err(CatalogError::Corrupt(format!(
            "{what}: invalid code width {width}"
        )));
    }
    let expected = (n * width as usize).div_ceil(8);
    if bytes.len() != expected {
        return Err(CatalogError::Corrupt(format!(
            "{what}: packed codes are {} bytes, expected {expected}",
            bytes.len()
        )));
    }
    let mask: u64 = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    out.reserve(n);
    let mut iter = bytes.iter();
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for _ in 0..n {
        while bits < width {
            let byte = iter
                .next()
                .ok_or_else(|| CatalogError::Corrupt(format!("{what}: packed codes truncated")))?;
            acc |= u64::from(*byte) << bits;
            bits += 8;
        }
        let code = (acc & mask) as usize;
        acc >>= width;
        bits -= width;
        let value = dict.get(code).ok_or_else(|| {
            CatalogError::Corrupt(format!(
                "{what}: code {code} out of range for dictionary of {}",
                dict.len()
            ))
        })?;
        out.push(*value);
    }
    Ok(())
}

fn unpack_codes(bytes: &[u8], width: u32, n: usize, what: &str) -> Result<Vec<u32>, CatalogError> {
    if !(1..=32).contains(&width) {
        return Err(CatalogError::Corrupt(format!(
            "{what}: invalid code width {width}"
        )));
    }
    let expected = (n * width as usize).div_ceil(8);
    if bytes.len() != expected {
        return Err(CatalogError::Corrupt(format!(
            "{what}: packed codes are {} bytes, expected {expected}",
            bytes.len()
        )));
    }
    let mask: u64 = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(n);
    let mut iter = bytes.iter();
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for _ in 0..n {
        while bits < width {
            let byte = iter
                .next()
                .ok_or_else(|| CatalogError::Corrupt(format!("{what}: packed codes truncated")))?;
            acc |= u64::from(*byte) << bits;
            bits += 8;
        }
        out.push((acc & mask) as u32);
        acc >>= width;
        bits -= width;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Chunk encode / decode
// ---------------------------------------------------------------------------

/// A cursor over a chunk payload that fails loudly on short reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], what: &'a str) -> Self {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CatalogError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end));
        match slice {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(CatalogError::Corrupt(format!(
                "{} truncated at byte {}",
                self.what, self.pos
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CatalogError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Result<u32, CatalogError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, CatalogError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn rest(&mut self) -> &'a [u8] {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        self.pos = self.bytes.len();
        rest
    }

    fn finish(&self) -> Result<(), CatalogError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CatalogError::Corrupt(format!(
                "{} has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn numeric_runs(values: &[f64]) -> Vec<(u32, u64)> {
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for &v in values {
        let bits = v.to_bits();
        match runs.last_mut() {
            Some((len, last)) if *last == bits && *len < u32::MAX => *len += 1,
            _ => runs.push((1, bits)),
        }
    }
    runs
}

fn code_runs(codes: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &c in codes {
        match runs.last_mut() {
            Some((len, last)) if *last == c && *len < u32::MAX => *len += 1,
            _ => runs.push((1, c)),
        }
    }
    runs
}

/// Encodes one numeric chunk, choosing the smallest of raw / rle / dict
/// (ties prefer raw, which is the zero-copy layout, then rle).
fn encode_numeric(values: &[f64]) -> (&'static str, Vec<u8>) {
    let raw_size = values.len() * 8;
    let runs = numeric_runs(values);
    let rle_size = 4 + runs.len() * 12;

    // Per-chunk value dictionary in first-appearance order (deterministic).
    let mut dict: Vec<u64> = Vec::new();
    let mut dict_index: HashMap<u64, u32> = HashMap::new();
    let mut codes: Vec<u32> = Vec::with_capacity(values.len());
    let mut dict_ok = true;
    for &v in values {
        let bits = v.to_bits();
        let code = match dict_index.get(&bits) {
            Some(&c) => c,
            None => {
                if dict.len() >= DICT_MAX {
                    dict_ok = false;
                    break;
                }
                let c = dict.len() as u32;
                dict.push(bits);
                dict_index.insert(bits, c);
                c
            }
        };
        codes.push(code);
    }
    let dict_size = if dict_ok && !values.is_empty() {
        let width = bits_for(dict.len() as u64);
        Some(4 + dict.len() * 8 + 1 + (values.len() * width as usize).div_ceil(8))
    } else {
        None
    };

    let mut best = ("raw", raw_size);
    if rle_size < best.1 {
        best = ("rle", rle_size);
    }
    if let Some(size) = dict_size {
        if size < best.1 {
            best = ("dict", size);
        }
    }

    match best.0 {
        "rle" => {
            let mut out = Vec::with_capacity(rle_size);
            out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
            for (len, bits) in &runs {
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&bits.to_le_bytes());
            }
            ("rle", out)
        }
        "dict" => {
            let width = bits_for(dict.len() as u64);
            let mut out = Vec::with_capacity(dict_size.unwrap_or(0));
            out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            for bits in &dict {
                out.extend_from_slice(&bits.to_le_bytes());
            }
            out.push(width as u8);
            out.extend_from_slice(&pack_codes(&codes, width));
            ("dict", out)
        }
        _ => {
            let mut out = Vec::with_capacity(raw_size);
            for &v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            ("raw", out)
        }
    }
}

/// Encodes one categorical chunk, choosing the smaller of bit-packed codes
/// and run-length-encoded codes (ties prefer packed codes).
fn encode_categorical(codes: &[u32]) -> (&'static str, Vec<u8>) {
    let max_code = codes.iter().copied().max().unwrap_or(0);
    let width = bits_for(u64::from(max_code) + 1);
    let packed_size = 1 + (codes.len() * width as usize).div_ceil(8);
    let runs = code_runs(codes);
    let rle_size = 4 + runs.len() * 8;
    if rle_size < packed_size {
        let mut out = Vec::with_capacity(rle_size);
        out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (len, code) in &runs {
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&code.to_le_bytes());
        }
        ("rlecodes", out)
    } else {
        let mut out = Vec::with_capacity(packed_size);
        out.push(width as u8);
        out.extend_from_slice(&pack_codes(codes, width));
        ("codes", out)
    }
}

fn encode_chunk(
    column: &Column,
    start: usize,
    end: usize,
) -> Result<(&'static str, Vec<u8>), CatalogError> {
    match column {
        Column::Numeric(values) => {
            let slice = values.as_slice().get(start..end).ok_or_else(|| {
                CatalogError::Corrupt(format!("chunk range {start}..{end} out of bounds"))
            })?;
            Ok(encode_numeric(slice))
        }
        Column::Categorical { codes, .. } => {
            let slice = codes.get(start..end).ok_or_else(|| {
                CatalogError::Corrupt(format!("chunk range {start}..{end} out of bounds"))
            })?;
            Ok(encode_categorical(slice))
        }
    }
}

/// Decodes one numeric chunk of `rows` values.
fn decode_numeric(
    encoding: &str,
    payload: &[u8],
    rows: usize,
    what: &str,
) -> Result<Vec<f64>, CatalogError> {
    let mut r = Reader::new(payload, what);
    let mut out = Vec::with_capacity(rows);
    match encoding {
        "raw" => {
            for _ in 0..rows {
                out.push(f64::from_bits(r.u64()?));
            }
        }
        "rle" => {
            let n_runs = r.u32()? as usize;
            for _ in 0..n_runs {
                let len = r.u32()? as usize;
                let value = f64::from_bits(r.u64()?);
                if out.len() + len > rows {
                    return Err(CatalogError::Corrupt(format!(
                        "{what}: rle runs exceed {rows} rows"
                    )));
                }
                out.extend(std::iter::repeat_n(value, len));
            }
        }
        "dict" => {
            let dict_len = r.u32()? as usize;
            if dict_len > DICT_MAX {
                return Err(CatalogError::Corrupt(format!(
                    "{what}: dictionary of {dict_len} entries exceeds the format cap"
                )));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(f64::from_bits(r.u64()?));
            }
            let width = u32::from(r.u8()?);
            unpack_dict(r.rest(), width, rows, &dict, &mut out, what)?;
        }
        other => {
            return Err(CatalogError::Corrupt(format!(
                "{what}: unknown numeric encoding {other:?}"
            )))
        }
    }
    r.finish()?;
    if out.len() != rows {
        return Err(CatalogError::Corrupt(format!(
            "{what}: decoded {} rows, expected {rows}",
            out.len()
        )));
    }
    Ok(out)
}

/// Decodes one categorical chunk of `rows` codes, validating every code
/// against the dictionary size.
fn decode_categorical(
    encoding: &str,
    payload: &[u8],
    rows: usize,
    dict_len: usize,
    what: &str,
) -> Result<Vec<u32>, CatalogError> {
    let mut r = Reader::new(payload, what);
    let out = match encoding {
        "codes" => {
            let width = u32::from(r.u8()?);
            unpack_codes(r.rest(), width, rows, what)?
        }
        "rlecodes" => {
            let n_runs = r.u32()? as usize;
            let mut out = Vec::with_capacity(rows);
            for _ in 0..n_runs {
                let len = r.u32()? as usize;
                let code = r.u32()?;
                if out.len() + len > rows {
                    return Err(CatalogError::Corrupt(format!(
                        "{what}: rle runs exceed {rows} rows"
                    )));
                }
                out.extend(std::iter::repeat_n(code, len));
            }
            out
        }
        other => {
            return Err(CatalogError::Corrupt(format!(
                "{what}: unknown categorical encoding {other:?}"
            )))
        }
    };
    r.finish()?;
    if out.len() != rows {
        return Err(CatalogError::Corrupt(format!(
            "{what}: decoded {} rows, expected {rows}",
            out.len()
        )));
    }
    if let Some(bad) = out.iter().find(|&&c| c as usize >= dict_len) {
        return Err(CatalogError::Corrupt(format!(
            "{what}: code {bad} out of range for dictionary of {dict_len}"
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn kind_str(t: ColumnType) -> &'static str {
    match t {
        ColumnType::Categorical => "categorical",
        ColumnType::Numeric => "numeric",
    }
}

fn role_str(r: AttributeRole) -> &'static str {
    match r {
        AttributeRole::Dimension => "dimension",
        AttributeRole::Measure => "measure",
    }
}

/// Encodes the chunks for groups `first_group..` of `column`, appending
/// their bytes (8-aligned) to `buf` whose first byte sits at file offset
/// `base`. Returns the chunk metadata.
fn encode_groups(
    column: &Column,
    rows: usize,
    group_rows: usize,
    first_group: usize,
    base: u64,
    buf: &mut Vec<u8>,
) -> Result<Vec<ChunkMeta>, CatalogError> {
    let n_groups = rows.div_ceil(group_rows);
    let mut chunks = Vec::with_capacity(n_groups.saturating_sub(first_group));
    for g in first_group..n_groups {
        let start = g * group_rows;
        let end = (start + group_rows).min(rows);
        let (encoding, payload) = encode_chunk(column, start, end)?;
        pad8(buf);
        let offset = base + buf.len() as u64;
        let checksum = hex(fnv64_words(&payload));
        let bytes = payload.len() as u64;
        buf.extend_from_slice(&payload);
        pad8(buf);
        chunks.push(ChunkMeta {
            encoding: encoding.to_owned(),
            offset,
            bytes,
            checksum,
            zone: ColumnZone::of_column(column, start, end),
        });
    }
    Ok(chunks)
}

fn write_manifest(dir: &Path, manifest: &Manifest2) -> Result<(), CatalogError> {
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| CatalogError::Corrupt(format!("manifest serialization: {e}")))?;
    let tmp = dir.join("manifest.json.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(json.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, manifest_path(dir))?;
    // Durability of the rename itself (best effort; not all platforms allow
    // fsync on a directory handle).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Writes `table` into `dir` as a VSC2 dataset, creating the directory.
/// Column files are written and synced first, the manifest last, so a
/// directory with a VSC2 manifest is always complete. A `group_rows` of
/// zero uses [`DEFAULT_GROUP_ROWS`].
///
/// # Errors
///
/// [`CatalogError::Io`] on filesystem failure.
pub fn save(dir: &Path, table: &Table, group_rows: usize) -> Result<Manifest2, CatalogError> {
    let group_rows = if group_rows == 0 {
        DEFAULT_GROUP_ROWS
    } else {
        group_rows
    };
    std::fs::create_dir_all(dir)?;
    let rows = table.row_count();
    let mut columns = Vec::with_capacity(table.schema().len());
    for (i, meta) in table.schema().columns().iter().enumerate() {
        let column = table.column(i);
        let mut buf: Vec<u8> = COLUMN_MAGIC.to_vec();
        let chunks = encode_groups(column, rows, group_rows, 0, 0, &mut buf)?;
        let file_name = column_file(i);
        let mut file = std::fs::File::create(dir.join(&file_name))?;
        file.write_all(&buf)?;
        file.sync_all()?;
        columns.push(Manifest2Column {
            name: meta.name.clone(),
            kind: kind_str(meta.column_type).to_owned(),
            role: role_str(meta.role).to_owned(),
            file: file_name,
            dictionary: match column {
                Column::Categorical { dictionary, .. } => dictionary.clone(),
                Column::Numeric(_) => Vec::new(),
            },
            chunks,
        });
    }
    let manifest = Manifest2 {
        format: FORMAT.to_owned(),
        rows: rows as u64,
        group_rows: group_rows as u64,
        table_checksum: hex(table_checksum(table)),
        columns,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Peek
// ---------------------------------------------------------------------------

/// Reads and validates the VSC2 manifest in `dir` without touching any
/// column file — enough for listings (schema, row count, on-disk bytes).
///
/// # Errors
///
/// [`CatalogError::Io`] when the manifest is missing;
/// [`CatalogError::Corrupt`] for unparseable JSON, a format tag other than
/// [`FORMAT`], or an inconsistent shape (bad group size, ragged chunk
/// counts, unsafe file names).
pub fn peek(dir: &Path) -> Result<Manifest2, CatalogError> {
    let path = manifest_path(dir);
    let json = std::fs::read_to_string(&path)?;
    let corrupt = |e| CatalogError::Corrupt(format!("manifest {path:?}: {e}"));
    let value = serde_json::parse_value(&json).map_err(corrupt)?;
    // The tag is judged before the shape, so a manifest in another format
    // is refused by name, not by whichever VSC2 field it happens to lack.
    if let Some(format) = value.get("format").and_then(|f| f.as_str()) {
        if format != FORMAT {
            return Err(CatalogError::Corrupt(format!(
                "unsupported format {format:?} (this reader expects {FORMAT:?})"
            )));
        }
    }
    let manifest: Manifest2 = serde_json::from_value(&value).map_err(corrupt)?;
    if manifest.group_rows == 0 {
        return Err(CatalogError::Corrupt("manifest has group_rows = 0".into()));
    }
    let n_groups = manifest.group_count();
    for (i, c) in manifest.columns.iter().enumerate() {
        // File names are derived, never trusted: a tampered manifest must
        // not be able to read outside the dataset directory.
        if c.file != column_file(i) {
            return Err(CatalogError::Corrupt(format!(
                "column {:?} names unexpected file {:?}",
                c.name, c.file
            )));
        }
        if c.chunks.len() != n_groups {
            return Err(CatalogError::Corrupt(format!(
                "column {:?} has {} chunks, expected {n_groups}",
                c.name,
                c.chunks.len()
            )));
        }
    }
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// A loaded VSC2 dataset: the table, its zone maps, and how its bytes are
/// held (for cache accounting).
#[derive(Debug)]
pub struct Loaded {
    /// The decoded (or mapped) table.
    pub table: Table,
    /// Zone maps from the manifest, verified against the data.
    pub zones: ZoneMaps,
    /// Bytes served by live file mappings (zero-copy columns).
    pub mapped_bytes: u64,
    /// Heap bytes owned by the table's columns.
    pub owned_bytes: u64,
    /// The manifest's [`Manifest2::data_bytes`] — the on-disk payload size
    /// of exactly the manifest this table was loaded through.
    pub data_bytes: u64,
}

impl Loaded {
    /// What the table actually costs while resident: owned heap bytes plus
    /// mapped file bytes.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.mapped_bytes + self.owned_bytes
    }
}

/// Whether a numeric column can be served straight from the mapping: every
/// chunk raw-encoded and the payloads contiguous (appends relocate the
/// rewritten tail group, breaking contiguity until a re-save).
#[cfg_attr(not(target_endian = "little"), allow(dead_code))]
fn zero_copy_span(chunks: &[ChunkMeta]) -> Option<(u64, u64)> {
    let first = chunks.first()?;
    if first.offset % 8 != 0 {
        return None;
    }
    let mut end = first.offset;
    for chunk in chunks {
        if chunk.encoding != "raw" || chunk.offset != end {
            return None;
        }
        end = chunk.offset.checked_add(chunk.bytes)?;
    }
    Some((first.offset, end))
}

/// Loads the VSC2 dataset in `dir`.
///
/// Every referenced chunk is bounds-checked and digest-verified, and every
/// zone summary in the manifest is compared against a recomputation from
/// the decoded (or mapped) values — a flipped bit in either payload or
/// zone map is a typed error, never a wrong answer. Raw, contiguous
/// numeric columns are served zero-copy from a file mapping on
/// little-endian targets.
///
/// # Errors
///
/// [`CatalogError::Io`] for missing files, [`CatalogError::Corrupt`] for
/// any validation failure.
pub fn load(dir: &Path) -> Result<Loaded, CatalogError> {
    let manifest = peek(dir)?;
    let schema = manifest.schema()?;
    let rows = usize::try_from(manifest.rows)
        .map_err(|_| CatalogError::Corrupt("row count overflows".into()))?;
    let group_rows = usize::try_from(manifest.group_rows)
        .map_err(|_| CatalogError::Corrupt("group_rows overflows".into()))?;
    let mut columns = Vec::with_capacity(manifest.columns.len());
    let mut mapped_bytes = 0u64;
    for mc in &manifest.columns {
        let map = Arc::new(Mapping::open(&dir.join(&mc.file))?);
        let header = map.bytes().get(..COLUMN_MAGIC.len());
        if header != Some(COLUMN_MAGIC.as_slice()) {
            return Err(CatalogError::Corrupt(format!(
                "column file {:?} has bad magic",
                mc.file
            )));
        }
        // Digest gate: every referenced chunk, before any decoding.
        for (g, chunk) in mc.chunks.iter().enumerate() {
            let payload = chunk_payload(&map, chunk, &mc.file, g)?;
            if hex(fnv64_words(payload)) != chunk.checksum {
                return Err(CatalogError::Corrupt(format!(
                    "column {:?} group {g}: checksum mismatch",
                    mc.name
                )));
            }
        }
        let column = match mc.kind.as_str() {
            "numeric" => load_numeric(&map, mc, rows, group_rows, &mut mapped_bytes)?,
            "categorical" => load_categorical(&map, mc, rows, group_rows)?,
            other => {
                return Err(CatalogError::Corrupt(format!(
                    "unknown column kind {other:?} in manifest"
                )))
            }
        };
        if column.len() != rows {
            return Err(CatalogError::Corrupt(format!(
                "column {:?} decoded {} rows, manifest says {rows}",
                mc.name,
                column.len()
            )));
        }
        columns.push(column);
    }
    let table = Table::new(schema, columns)
        .map_err(|e| CatalogError::Corrupt(format!("manifest table: {e}")))?;
    let zones = manifest.zone_maps()?;
    // Tamper gate for the zone maps themselves: a zone that disagrees with
    // the data it summarizes would let pruning skip matching rows — reject
    // the dataset instead.
    if ZoneMaps::build(&table, group_rows) != zones {
        return Err(CatalogError::Corrupt(
            "zone maps disagree with column data".into(),
        ));
    }
    let owned_bytes = (0..table.schema().len())
        .map(|i| table.column(i).owned_bytes() as u64)
        .sum();
    Ok(Loaded {
        table,
        zones,
        mapped_bytes,
        owned_bytes,
        data_bytes: manifest.data_bytes(),
    })
}

fn chunk_payload<'m>(
    map: &'m Mapping,
    chunk: &ChunkMeta,
    file: &str,
    group: usize,
) -> Result<&'m [u8], CatalogError> {
    let offset = usize::try_from(chunk.offset)
        .map_err(|_| CatalogError::Corrupt("chunk offset overflows".into()))?;
    let bytes = usize::try_from(chunk.bytes)
        .map_err(|_| CatalogError::Corrupt("chunk length overflows".into()))?;
    offset
        .checked_add(bytes)
        .and_then(|end| map.bytes().get(offset..end))
        .ok_or_else(|| {
            CatalogError::Corrupt(format!(
                "column file {file:?} group {group}: chunk {offset}+{bytes} out of bounds \
                 (file is {} bytes)",
                map.len()
            ))
        })
}

fn group_bounds(g: usize, rows: usize, group_rows: usize) -> (usize, usize) {
    let start = g * group_rows;
    (start.min(rows), (start + group_rows).min(rows))
}

fn load_numeric(
    map: &Arc<Mapping>,
    mc: &Manifest2Column,
    rows: usize,
    group_rows: usize,
    mapped_bytes: &mut u64,
) -> Result<Column, CatalogError> {
    #[cfg(target_endian = "little")]
    {
        if map.is_mapped() {
            if let Some((start, end)) = zero_copy_span(&mc.chunks) {
                if end - start == rows as u64 * 8 {
                    let offset = usize::try_from(start)
                        .map_err(|_| CatalogError::Corrupt("chunk offset overflows".into()))?;
                    let view = MappedF64::new(Arc::clone(map), offset, rows)?;
                    *mapped_bytes += map.len() as u64;
                    return Ok(Column::numeric_shared(Arc::new(view)));
                }
            }
        }
    }
    let mut values = Vec::with_capacity(rows);
    for (g, chunk) in mc.chunks.iter().enumerate() {
        let (start, end) = group_bounds(g, rows, group_rows);
        let what = format!("column {:?} group {g}", mc.name);
        let payload = chunk_payload(map, chunk, &mc.file, g)?;
        values.extend(decode_numeric(
            &chunk.encoding,
            payload,
            end - start,
            &what,
        )?);
    }
    Ok(Column::numeric(values))
}

fn load_categorical(
    map: &Arc<Mapping>,
    mc: &Manifest2Column,
    rows: usize,
    group_rows: usize,
) -> Result<Column, CatalogError> {
    let mut codes = Vec::with_capacity(rows);
    for (g, chunk) in mc.chunks.iter().enumerate() {
        let (start, end) = group_bounds(g, rows, group_rows);
        let what = format!("column {:?} group {g}", mc.name);
        let payload = chunk_payload(map, chunk, &mc.file, g)?;
        codes.extend(decode_categorical(
            &chunk.encoding,
            payload,
            end - start,
            mc.dictionary.len(),
            &what,
        )?);
    }
    Ok(Column::Categorical {
        codes,
        dictionary: mc.dictionary.clone(),
    })
}

// ---------------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------------

/// The result of an append: the new manifest plus the merged in-memory
/// table and its zone maps (ready to swap into the catalog cache).
#[derive(Debug)]
pub struct Appended {
    /// The manifest now on disk.
    pub manifest: Manifest2,
    /// The merged table (old rows followed by appended rows).
    pub table: Table,
    /// Zone maps matching the merged table.
    pub zones: ZoneMaps,
}

/// Merges `chunk` onto `old` (same schema required): numeric columns are
/// concatenated; categorical dictionaries grow append-only, with the
/// chunk's codes translated into the merged dictionary.
pub(crate) fn merge_tables(old: &Table, chunk: &Table) -> Result<Table, CatalogError> {
    if old.schema() != chunk.schema() {
        return Err(CatalogError::Dataset(
            "appended rows have a different schema than the dataset".into(),
        ));
    }
    let mut columns = Vec::with_capacity(old.schema().len());
    for i in 0..old.schema().len() {
        let merged = match (old.column(i), chunk.column(i)) {
            (Column::Numeric(a), Column::Numeric(b)) => {
                let mut values = Vec::with_capacity(a.len() + b.len());
                values.extend_from_slice(a.as_slice());
                values.extend_from_slice(b.as_slice());
                Column::numeric(values)
            }
            (
                Column::Categorical {
                    codes: old_codes,
                    dictionary: old_dict,
                },
                Column::Categorical {
                    codes: new_codes,
                    dictionary: new_dict,
                },
            ) => {
                let mut dictionary = old_dict.clone();
                let index: HashMap<&str, u32> = old_dict
                    .iter()
                    .enumerate()
                    .map(|(c, s)| (s.as_str(), c as u32))
                    .collect();
                let mut remap = Vec::with_capacity(new_dict.len());
                for entry in new_dict {
                    match index.get(entry.as_str()) {
                        Some(&code) => remap.push(code),
                        None => {
                            let code = dictionary.len() as u32;
                            remap.push(code);
                            dictionary.push(entry.clone());
                            // Entries within one dictionary are unique, so
                            // the index needn't learn the new code; `remap`
                            // already carries it.
                        }
                    }
                }
                let mut codes = Vec::with_capacity(old_codes.len() + new_codes.len());
                codes.extend_from_slice(old_codes);
                for &c in new_codes {
                    let mapped = remap.get(c as usize).ok_or_else(|| {
                        CatalogError::Dataset(format!(
                            "appended rows carry code {c} outside their dictionary"
                        ))
                    })?;
                    codes.push(*mapped);
                }
                Column::Categorical { codes, dictionary }
            }
            _ => {
                return Err(CatalogError::Dataset(
                    "appended rows have a different schema than the dataset".into(),
                ))
            }
        };
        columns.push(merged);
    }
    Table::new(old.schema().clone(), columns)
        .map_err(|e| CatalogError::Dataset(format!("merged table: {e}")))
}

/// Appends `chunk`'s rows to the VSC2 dataset in `dir`, whose current
/// manifest is `manifest` and whose current table is `old` (the caller —
/// the catalog — guarantees they agree).
///
/// Bytes are only ever added: the last, partial row group (if any) is
/// re-encoded as fresh chunks at the end of each column file together with
/// the new groups, and the manifest is swapped atomically last. A crash at
/// any point leaves either the old or the new manifest in place, each
/// describing a complete dataset.
///
/// # Errors
///
/// [`CatalogError::Dataset`] for schema mismatches or empty appends;
/// [`CatalogError::Io`] on filesystem failure.
pub fn append(
    dir: &Path,
    manifest: &Manifest2,
    old: &Table,
    chunk: &Table,
) -> Result<Appended, CatalogError> {
    if chunk.row_count() == 0 {
        return Err(CatalogError::Dataset("append carries no rows".into()));
    }
    let group_rows = usize::try_from(manifest.group_rows)
        .map_err(|_| CatalogError::Corrupt("group_rows overflows".into()))?;
    if group_rows == 0 {
        return Err(CatalogError::Corrupt("manifest has group_rows = 0".into()));
    }
    let old_rows = old.row_count();
    if manifest.rows != old_rows as u64 || manifest.columns.len() != old.schema().len() {
        return Err(CatalogError::Corrupt(
            "manifest does not describe the resident table".into(),
        ));
    }
    let merged = merge_tables(old, chunk)?;
    let new_rows = merged.row_count();
    // Groups before this index are untouched; the partial tail group (if
    // any) and all new groups are re-encoded at the end of each file.
    let first_dirty = old_rows / group_rows;
    let mut columns = Vec::with_capacity(manifest.columns.len());
    for (i, mc) in manifest.columns.iter().enumerate() {
        if mc.file != column_file(i) {
            return Err(CatalogError::Corrupt(format!(
                "column {:?} names unexpected file {:?}",
                mc.name, mc.file
            )));
        }
        let column = merged.column(i);
        let path = dir.join(&mc.file);
        let mut file = std::fs::OpenOptions::new().append(true).open(&path)?;
        let base = file.metadata()?.len();
        let mut buf = Vec::new();
        // Re-align in case an interrupted append left a ragged tail.
        let pad = (8 - (base % 8) as usize) % 8;
        buf.resize(pad, 0);
        let fresh = encode_groups(column, new_rows, group_rows, first_dirty, base, &mut buf)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        let mut chunks = Vec::with_capacity(new_rows.div_ceil(group_rows));
        chunks.extend(mc.chunks.iter().take(first_dirty).cloned());
        chunks.extend(fresh);
        columns.push(Manifest2Column {
            name: mc.name.clone(),
            kind: mc.kind.clone(),
            role: mc.role.clone(),
            file: mc.file.clone(),
            dictionary: match column {
                Column::Categorical { dictionary, .. } => dictionary.clone(),
                Column::Numeric(_) => Vec::new(),
            },
            chunks,
        });
    }
    let new_manifest = Manifest2 {
        format: FORMAT.to_owned(),
        rows: new_rows as u64,
        group_rows: manifest.group_rows,
        table_checksum: hex(table_checksum(&merged)),
        columns,
    };
    write_manifest(dir, &new_manifest)?;
    let zones = new_manifest.zone_maps()?;
    Ok(Appended {
        manifest: new_manifest,
        table: merged,
        zones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_dataset::Predicate;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vsc2-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_table(rows: usize) -> Table {
        let cities: Vec<String> = (0..rows).map(|i| format!("c{}", i % 7)).collect();
        let schema = Schema::builder()
            .categorical_dimension("city")
            .numeric_dimension("n_age")
            .measure("m_sales")
            .build()
            .unwrap();
        Table::new(
            schema,
            vec![
                Column::categorical_from_values(&cities),
                Column::numeric((0..rows).map(|i| f64::from((i % 50) as u32)).collect()),
                Column::numeric((0..rows).map(|i| (i / 10) as f64).collect()),
            ],
        )
        .unwrap()
    }

    fn tables_bit_identical(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.row_count(), b.row_count());
        for i in 0..a.schema().len() {
            match (a.column(i), b.column(i)) {
                (Column::Numeric(x), Column::Numeric(y)) => {
                    let (x, y) = (x.as_slice(), y.as_slice());
                    assert_eq!(x.len(), y.len());
                    for (p, q) in x.iter().zip(y) {
                        assert_eq!(p.to_bits(), q.to_bits());
                    }
                }
                (
                    Column::Categorical {
                        codes: xc,
                        dictionary: xd,
                    },
                    Column::Categorical {
                        codes: yc,
                        dictionary: yd,
                    },
                ) => {
                    assert_eq!(xc, yc);
                    assert_eq!(xd, yd);
                }
                _ => panic!("column {i} kind mismatch"),
            }
        }
    }

    #[test]
    fn round_trip_with_small_groups() {
        let dir = tmp("roundtrip");
        let table = demo_table(1000);
        let manifest = save(&dir, &table, 128).unwrap();
        assert_eq!(manifest.group_count(), 8);
        let loaded = load(&dir).unwrap();
        tables_bit_identical(&table, &loaded.table);
        assert!(loaded.zones.covers(&loaded.table));
        assert_eq!(loaded.data_bytes, peek(&dir).unwrap().data_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compresses_repetitive_data_well_below_raw() {
        let dir = tmp("compress");
        let table = demo_table(10_000);
        let manifest = save(&dir, &table, 1024).unwrap();
        let raw = crate::table_owned_bytes(&table);
        assert!(
            manifest.data_bytes() * 3 <= raw,
            "expected >=3x compression, got {} vs {raw}",
            manifest.data_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_copy_span_detection() {
        let chunk = |offset, bytes, encoding: &str| ChunkMeta {
            encoding: encoding.to_owned(),
            offset,
            bytes,
            checksum: String::new(),
            zone: ColumnZone::of_numeric(&[]),
        };
        assert_eq!(
            zero_copy_span(&[chunk(8, 64, "raw"), chunk(72, 16, "raw")]),
            Some((8, 88))
        );
        assert_eq!(
            zero_copy_span(&[chunk(8, 64, "raw"), chunk(80, 16, "raw")]),
            None
        );
        assert_eq!(zero_copy_span(&[chunk(8, 64, "rle")]), None);
        assert_eq!(zero_copy_span(&[]), None);
    }

    #[test]
    fn append_preserves_history_and_is_readable() {
        let dir = tmp("append");
        let old = demo_table(300);
        let manifest = save(&dir, &old, 128).unwrap();
        let extra = demo_table(100);
        let appended = append(&dir, &manifest, &old, &extra).unwrap();
        assert_eq!(appended.table.row_count(), 400);
        let loaded = load(&dir).unwrap();
        tables_bit_identical(&appended.table, &loaded.table);
        // Old rows unchanged.
        let reload_old_rows = loaded.table.column(2).values().unwrap();
        let old_rows = old.column(2).values().unwrap();
        assert_eq!(&reload_old_rows[..300], old_rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_append_keeps_the_old_dataset() {
        let dir = tmp("crash");
        let old = demo_table(300);
        let manifest = save(&dir, &old, 128).unwrap();
        let before = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        append(&dir, &manifest, &old, &demo_table(100)).unwrap();
        // Simulate the crash window: column bytes appended, manifest swap
        // never happened.
        std::fs::write(dir.join(MANIFEST), before).unwrap();
        let loaded = load(&dir).unwrap();
        tables_bit_identical(&old, &loaded.table);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_bit_is_rejected() {
        let dir = tmp("flip");
        let manifest = save(&dir, &demo_table(500), 128).unwrap();
        let target = dir.join(&manifest.columns[2].file);
        let mut bytes = std::fs::read(&target).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&target, bytes).unwrap();
        assert!(matches!(load(&dir), Err(CatalogError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_zone_map_is_rejected() {
        let dir = tmp("zoneflip");
        save(&dir, &demo_table(500), 128).unwrap();
        let mut manifest = peek(&dir).unwrap();
        let chunk = &mut manifest.columns[1].chunks[1];
        if let ColumnZone::Numeric { max_bits, .. } = &mut chunk.zone {
            *max_bits ^= 1 << 52;
        } else {
            panic!("expected a numeric zone");
        }
        // Re-sign nothing: the payload digest still matches; only the zone
        // lies. The loader must still reject it.
        write_manifest(&dir, &manifest).unwrap();
        match load(&dir) {
            Err(CatalogError::Corrupt(msg)) => assert!(msg.contains("zone maps")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_column_file_is_rejected() {
        let dir = tmp("trunc");
        let manifest = save(&dir, &demo_table(500), 128).unwrap();
        let target = dir.join(&manifest.columns[0].file);
        let bytes = std::fs::read(&target).unwrap();
        std::fs::write(&target, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(load(&dir), Err(CatalogError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_naming_foreign_files_is_rejected() {
        let dir = tmp("foreign");
        save(&dir, &demo_table(100), 128).unwrap();
        let mut manifest = peek(&dir).unwrap();
        manifest.columns[0].file = "../escape.vs2".to_owned();
        write_manifest(&dir, &manifest).unwrap();
        assert!(matches!(peek(&dir), Err(CatalogError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zone_pruning_on_loaded_dataset_matches_plain_evaluation() {
        let dir = tmp("prune");
        let table = demo_table(2000);
        save(&dir, &table, 256).unwrap();
        let loaded = load(&dir).unwrap();
        let pred = Predicate::range("m_sales", 100.0, 900.0);
        let plain = pred.evaluate(&loaded.table).unwrap();
        let (pruned, stats) = pred.evaluate_pruned(&loaded.table, &loaded.zones).unwrap();
        assert_eq!(plain.ids(), pruned.ids());
        assert!(!plain.is_empty(), "predicate should select rows");
        assert!(stats.pruned > 0, "sorted measure should prune groups");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
