//! Content digests: what makes "the same table" checkable.
//!
//! [`table_checksum`] is the identity every layer compares — it is
//! persisted in every VSC2 manifest ([`crate::vsc2`]), reported by the
//! catalog for every dataset, and stored in every session snapshot, so a
//! restored session can prove it is looking at the table it was built on.
//! The digest is FNV-1a 64 over the schema followed by each column's
//! *canonical encoding*, which is therefore frozen byte for byte:
//!
//! ```text
//! tag     (4 bytes)   0x56 0x53 0x42 0x31, constant
//! kind    (1 byte)    0 = numeric, 1 = categorical
//! rows    (u64)       row count
//! numeric payload:    rows × f64 (raw bit patterns, so NaN payloads and
//!                     signed zero digest distinctly)
//! categorical payload: dict_len (u32), then per dictionary entry
//!                     byte_len (u32) + UTF-8 bytes, then rows × u32 codes
//! ```
//!
//! All integers little-endian. Nothing reads this encoding back; it exists
//! only to be hashed. The known-answer test below pins it.

use viewseeker_dataset::schema::{AttributeRole, ColumnType};
use viewseeker_dataset::{Column, Table};

/// First four bytes of every column's canonical encoding.
const BLOCK_MAGIC: &[u8; 4] = &[0x56, 0x53, 0x42, 0x31];
const KIND_NUMERIC: u8 = 0;
const KIND_CATEGORICAL: u8 = 1;

// ---------------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh digest state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte slice.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Formats a digest as 16 lowercase hex digits.
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

// ---------------------------------------------------------------------------
// Canonical column encoding and the table digest
// ---------------------------------------------------------------------------

fn encode_block(column: &Column) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + column.len() * 8);
    out.extend_from_slice(BLOCK_MAGIC);
    match column {
        Column::Numeric(values) => {
            out.push(KIND_NUMERIC);
            out.extend_from_slice(&(values.len() as u64).to_le_bytes());
            for v in values.as_slice() {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Column::Categorical { codes, dictionary } => {
            out.push(KIND_CATEGORICAL);
            out.extend_from_slice(&(codes.len() as u64).to_le_bytes());
            out.extend_from_slice(&(dictionary.len() as u32).to_le_bytes());
            for entry in dictionary {
                out.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                out.extend_from_slice(entry.as_bytes());
            }
            for code in codes {
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
    }
    out
}

/// Content digest of a table: FNV-1a 64 over the schema (names, types,
/// roles) and every column's canonical encoding (module docs). Two tables
/// digest equal iff they are bit-identical (including NaN payloads and
/// signed zeros).
#[must_use]
pub fn table_checksum(table: &Table) -> u64 {
    let mut h = Fnv64::new();
    for meta in table.schema().columns() {
        h.update(&(meta.name.len() as u32).to_le_bytes());
        h.update(meta.name.as_bytes());
        h.update(&[
            match meta.column_type {
                ColumnType::Categorical => 1,
                ColumnType::Numeric => 0,
            },
            match meta.role {
                AttributeRole::Dimension => 0,
                AttributeRole::Measure => 1,
            },
        ]);
    }
    for i in 0..table.schema().len() {
        h.update(&encode_block(table.column(i)));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_dataset::generate::{generate_diab, generate_syn, DiabConfig, SynConfig};
    use viewseeker_dataset::Schema;

    fn demo_table() -> Table {
        let schema = Schema::builder()
            .categorical_dimension("city")
            .numeric_dimension("n_age")
            .measure("m_sales")
            .build()
            .unwrap();
        Table::new(
            schema,
            vec![
                Column::categorical_from_values(&["NY", "LA", "NY", "SF"]),
                Column::numeric(vec![21.0, 34.5, -0.0, f64::NAN]),
                Column::numeric(vec![1.5, -2.0, 1e300, f64::INFINITY]),
            ],
        )
        .unwrap()
    }

    /// NaN with a payload, `-0.0`, and an empty-string dictionary entry.
    fn edge_table() -> Table {
        let schema = Schema::builder()
            .categorical_dimension("tag")
            .numeric_dimension("n_x")
            .measure("m_y")
            .build()
            .unwrap();
        Table::new(
            schema,
            vec![
                Column::categorical_from_values(&["", "a", ""]),
                Column::numeric(vec![f64::from_bits(0x7ff8_0000_dead_beef), -0.0, 1.5]),
                Column::numeric(vec![1.0, f64::NEG_INFINITY, 2.5]),
            ],
        )
        .unwrap()
    }

    /// Known answers, computed by the code as it stood before the digest
    /// moved into this module. Manifests and session snapshots persist these
    /// values, so a change here strands every stored dataset and snapshot;
    /// the two generator rows also catch a generator (or `vendor/rand`)
    /// changing its output silently.
    #[test]
    fn table_checksum_known_answers() {
        let cases = [
            (
                "diab",
                generate_diab(&DiabConfig::small(200, 7)).unwrap(),
                "817538258096254d",
            ),
            (
                "syn",
                generate_syn(&SynConfig::small(200, 7)).unwrap(),
                "aabd6bf69866aacc",
            ),
            ("edge", edge_table(), "dd27c71e9ab2b067"),
        ];
        assert_eq!(hex(fnv64(b"viewseeker")), "79f453ea4384fae7");
        let dir = std::env::temp_dir().join(format!("digest-kat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = crate::Catalog::open(dir.join("catalog"), 1 << 20).unwrap();
        for (name, table, expected) in cases {
            assert_eq!(hex(table_checksum(&table)), expected, "{name}");
            let manifest = crate::vsc2::save(&dir.join(name), &table, 0).unwrap();
            assert_eq!(manifest.table_checksum, expected, "{name} manifest");
            let entry = catalog.put(&format!("kat-{name}"), table).unwrap();
            assert_eq!(entry.checksum, expected, "{name} catalog entry");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_distinguishes_content_and_schema() {
        let table = demo_table();
        let schema = table.schema().clone();
        let other = Table::new(
            schema,
            vec![
                Column::categorical_from_values(&["NY", "LA", "NY", "LA"]),
                Column::numeric(vec![21.0, 34.5, -0.0, f64::NAN]),
                Column::numeric(vec![1.5, -2.0, 1e300, f64::INFINITY]),
            ],
        )
        .unwrap();
        assert_ne!(table_checksum(&table), table_checksum(&other));
        // Same columns under different roles digest differently.
        let alt_schema = Schema::builder()
            .categorical_dimension("city")
            .measure("n_age")
            .measure("m_sales")
            .build()
            .unwrap();
        let relabeled = Table::new(
            alt_schema,
            (0..3).map(|i| table.column(i).clone()).collect(),
        )
        .unwrap();
        assert_ne!(table_checksum(&table), table_checksum(&relabeled));
    }
}
