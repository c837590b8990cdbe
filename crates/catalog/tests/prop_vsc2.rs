//! Property tests pinning the VSC2 on-disk format against its one oracle,
//! the source table: `Table → save → load` must round-trip bit-identically
//! (columns, dictionaries, schema, zone maps, content digest) for arbitrary
//! tables at arbitrary row-group sizes, whatever mix of encodings the
//! encoder picks per chunk.
//!
//! A corruption battery rides along: any single bit flip inside a chunk
//! payload, any truncation of a column file, and a manifest that lies
//! about the row count must all surface as typed [`CatalogError`]s —
//! never a panic, never a silently wrong table. An interrupted append
//! (column bytes written, manifest swap lost) must leave the *old*
//! dataset fully loadable, because append only ever adds bytes and the
//! manifest rename is the commit point.
//!
//! Table generation: the vendored proptest shim has no heterogeneous
//! strategy composition, so tables grow from a small spec (rows,
//! per-column kind codes, one seed) expanded by a splitmix64 stream — full
//! adversarial coverage (NaN payloads, ±inf, -0.0, subnormals, awkward
//! dictionary strings) on every case. The shim's
//! `proptest!` macro is also token-recursive, so each property body lives
//! in a plain `check_*` function and the macro input stays minimal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use viewseeker_catalog::digest::{hex, table_checksum};
use viewseeker_catalog::{vsc2, CatalogError};
use viewseeker_dataset::schema::{AttributeRole, ColumnMeta, ColumnType};
use viewseeker_dataset::{Column, Schema, Table, ZoneMaps};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vsc2-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic stream used to expand one generated seed into cell data.
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Adversarial f64s: mostly ordinary magnitudes, with NaN, ±inf, -0.0,
    /// a subnormal, a huge value, and repeated values (so RLE and dict
    /// chunks appear alongside raw ones) mixed in.
    fn f64(&mut self) -> f64 {
        match self.next() % 10 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / 2.0,
            5 => 1e300,
            6 | 7 => (self.next() % 3) as f64, // low cardinality
            _ => (self.next() as i64 as f64) / 1e4,
        }
    }
}

/// Column kind codes drawn by the strategy: 0 = categorical dimension,
/// 1 = numeric dimension, 2 = measure.
fn build_table(rows: usize, kinds: &[u32], seed: u64) -> Table {
    let mut stream = Splitmix(seed);
    let mut metas = Vec::with_capacity(kinds.len());
    let mut columns = Vec::with_capacity(kinds.len());
    for (i, kind) in kinds.iter().enumerate() {
        let name = format!("c{i}");
        match kind {
            0 => {
                let dict_len = 1 + (stream.next() as usize) % 7;
                let dictionary: Vec<String> = (0..dict_len)
                    .map(|d| {
                        let pad = (stream.next() as usize) % 4;
                        format!("v{d}{}", "é,\"\n".repeat(pad))
                    })
                    .collect();
                let codes: Vec<u32> = (0..rows)
                    .map(|_| (stream.next() % dict_len as u64) as u32)
                    .collect();
                metas.push(ColumnMeta {
                    name,
                    column_type: ColumnType::Categorical,
                    role: AttributeRole::Dimension,
                });
                columns.push(
                    Column::categorical_from_codes(codes, dictionary)
                        .expect("codes in range by construction"),
                );
            }
            kind => {
                let role = if *kind == 1 {
                    AttributeRole::Dimension
                } else {
                    AttributeRole::Measure
                };
                metas.push(ColumnMeta {
                    name,
                    column_type: ColumnType::Numeric,
                    role,
                });
                columns.push(Column::numeric((0..rows).map(|_| stream.f64()).collect()));
            }
        }
    }
    Table::new(Schema::new(metas).expect("unique names"), columns).expect("columns match schema")
}

/// `(table, group_rows)` with group sizes straddling the row count, so
/// single-group, multi-group, and partial-tail-group layouts all appear.
fn arb_table_and_groups() -> impl Strategy<Value = (Table, usize)> {
    (
        1usize..60,
        proptest::collection::vec(0u32..3, 1..5),
        0u64..u64::MAX,
        1usize..24,
    )
        .prop_map(|(rows, kinds, seed, group_rows)| (build_table(rows, &kinds, seed), group_rows))
}

/// Numeric columns compared by bit pattern so NaN and -0.0 count.
fn columns_bit_identical(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Numeric(x), Column::Numeric(y)) => {
            x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
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
        ) => xc == yc && xd == yd,
        _ => false,
    }
}

fn tables_bit_identical(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema()
        && (0..a.schema().len()).all(|i| columns_bit_identical(a.column(i), b.column(i)))
}

/// Round trip against the source table: the load must be bit-identical
/// to what was saved and digest the same, and the digest the manifest
/// persists must be the source table's. The loaded zone maps must equal a
/// fresh in-memory build — a wrong zone would make pruning skip live rows.
fn check_round_trip(table: &Table, group_rows: usize) {
    let dir = fresh_dir("rt");
    let manifest = vsc2::save(&dir, table, group_rows).unwrap();
    assert_eq!(manifest.rows, table.row_count() as u64);
    assert_eq!(
        manifest.group_count(),
        table.row_count().div_ceil(group_rows)
    );
    assert_eq!(manifest.table_checksum, hex(table_checksum(table)));

    let loaded = vsc2::load(&dir).unwrap();
    assert!(
        tables_bit_identical(&loaded.table, table),
        "VSC2 round trip changed the table"
    );
    assert_eq!(table_checksum(&loaded.table), table_checksum(table));
    assert_eq!(loaded.zones, ZoneMaps::build(table, group_rows));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any single bit flip inside any chunk payload is rejected with a typed
/// error at load — the per-chunk digest gate runs before any decoding, so
/// a flipped bit can never panic a decoder or produce a silently wrong
/// column.
fn check_bit_flip_rejected(table: &Table, group_rows: usize, pick: u64) {
    let dir = fresh_dir("flip");
    let manifest = vsc2::save(&dir, table, group_rows).unwrap();
    let col = &manifest.columns[(pick as usize) % manifest.columns.len()];
    let chunk = &col.chunks[((pick >> 16) as usize) % col.chunks.len()];
    let path = dir.join(&col.file);
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = chunk.offset as usize + ((pick >> 8) as usize) % (chunk.bytes as usize);
    bytes[offset] ^= 1 << ((pick >> 40) % 8);
    std::fs::write(&path, bytes).unwrap();
    assert!(
        matches!(vsc2::load(&dir), Err(CatalogError::Corrupt(_))),
        "flipped a bit at byte {offset} of {} and load still succeeded",
        col.file
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any truncation of a column file below its live payload is rejected with
/// a typed error (bad magic, chunk out of bounds, or digest mismatch —
/// depending on where the cut lands), never a panic.
fn check_truncation_rejected(table: &Table, group_rows: usize, pick: u64) {
    let dir = fresh_dir("trunc");
    let manifest = vsc2::save(&dir, table, group_rows).unwrap();
    let col = &manifest.columns[(pick as usize) % manifest.columns.len()];
    let required: u64 = col.chunks.iter().map(|c| c.offset + c.bytes).max().unwrap();
    let path = dir.join(&col.file);
    let bytes = std::fs::read(&path).unwrap();
    let keep = ((pick >> 8) % required) as usize;
    std::fs::write(&path, &bytes[..keep]).unwrap();
    assert!(
        matches!(
            vsc2::load(&dir),
            Err(CatalogError::Corrupt(_) | CatalogError::Io(_))
        ),
        "truncated {} to {keep} bytes (of {required} live) and load still succeeded",
        col.file
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest that claims one extra row fails the cross-checks even though
/// every chunk still matches its (unchanged) digest.
fn check_row_tampering_rejected(table: &Table, group_rows: usize) {
    let dir = fresh_dir("rows");
    vsc2::save(&dir, table, group_rows).unwrap();
    let path = dir.join(vsc2::MANIFEST);
    let json = std::fs::read_to_string(&path).unwrap();
    let mut manifest: vsc2::Manifest2 = serde_json::from_str(&json).unwrap();
    manifest.rows += 1;
    std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).unwrap();
    assert!(matches!(vsc2::load(&dir), Err(CatalogError::Corrupt(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash atomicity of the append path. Append re-encodes the partial tail
/// group and the new groups at the *end* of each column file and swaps the
/// manifest last, so:
///
/// * a crash before the manifest swap (old manifest, grown column files)
///   must load the **old** table bit-identically, and
/// * the committed state must load the **merged** table bit-identically.
fn check_interrupted_append(table: &Table, group_rows: usize, tail_rows: usize, tail_seed: u64) {
    let dir = fresh_dir("append");
    let manifest = vsc2::save(&dir, table, group_rows).unwrap();
    let manifest_path = dir.join(vsc2::MANIFEST);
    let old_manifest_bytes = std::fs::read(&manifest_path).unwrap();

    // Same kind codes → same schema; fresh seed → fresh cell data and
    // (for categorical columns) dictionaries that overlap but extend.
    let kinds: Vec<u32> = table
        .schema()
        .columns()
        .iter()
        .map(|m| match (m.column_type, m.role) {
            (ColumnType::Categorical, _) => 0,
            (ColumnType::Numeric, AttributeRole::Dimension) => 1,
            _ => 2,
        })
        .collect();
    let chunk = build_table(tail_rows, &kinds, tail_seed);
    let appended = vsc2::append(&dir, &manifest, table, &chunk).unwrap();
    assert_eq!(
        appended.manifest.rows as usize,
        table.row_count() + tail_rows
    );
    let new_manifest_bytes = std::fs::read(&manifest_path).unwrap();

    // Simulated crash: column bytes are on disk, manifest swap lost.
    std::fs::write(&manifest_path, &old_manifest_bytes).unwrap();
    let recovered = vsc2::load(&dir).unwrap();
    assert!(
        tables_bit_identical(&recovered.table, table),
        "pre-append manifest no longer describes the old table"
    );

    // The committed state loads the merged table.
    std::fs::write(&manifest_path, &new_manifest_bytes).unwrap();
    let committed = vsc2::load(&dir).unwrap();
    assert!(
        tables_bit_identical(&committed.table, &appended.table),
        "committed manifest does not describe the merged table"
    );
    assert_eq!(committed.zones, appended.zones);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vsc2_round_trips_bit_identically_to_the_source_table(
        (table, group_rows) in arb_table_and_groups(),
    ) {
        check_round_trip(&table, group_rows);
    }

    #[test]
    fn any_single_bit_flip_in_a_chunk_payload_is_rejected(
        (table, group_rows) in arb_table_and_groups(),
        pick in 0u64..u64::MAX,
    ) {
        check_bit_flip_rejected(&table, group_rows, pick);
    }

    #[test]
    fn any_truncation_of_a_column_file_is_rejected(
        (table, group_rows) in arb_table_and_groups(),
        pick in 0u64..u64::MAX,
    ) {
        check_truncation_rejected(&table, group_rows, pick);
    }

    #[test]
    fn manifest_row_count_tampering_is_rejected(
        (table, group_rows) in arb_table_and_groups(),
    ) {
        check_row_tampering_rejected(&table, group_rows);
    }

    #[test]
    fn interrupted_append_preserves_the_old_dataset(
        (table, group_rows) in arb_table_and_groups(),
        tail_rows in 1usize..40,
        tail_seed in 0u64..u64::MAX,
    ) {
        check_interrupted_append(&table, group_rows, tail_rows, tail_seed);
    }
}

/// One deterministic table whose chunks exercise every encoding the format
/// defines — raw and dictionary-coded floats, run-length floats, bit-packed
/// and run-length categorical codes — each pinned by name so an encoder
/// regression (an encoding that stops being chosen) fails loudly, and the
/// whole table still round-trips bit-identically.
#[test]
fn every_encoding_appears_and_round_trips() {
    // Enough rows that one long run beats bit-packing: a constant 1-bit
    // column packs to ~rows/8 bytes, while its RLE form stays at 12.
    let rows = 200;
    let mut stream = Splitmix(0xfeed);
    let metas = vec![
        ColumnMeta {
            name: "cat_alternating".into(),
            column_type: ColumnType::Categorical,
            role: AttributeRole::Dimension,
        },
        ColumnMeta {
            name: "cat_constant".into(),
            column_type: ColumnType::Categorical,
            role: AttributeRole::Dimension,
        },
        ColumnMeta {
            name: "n_unique".into(),
            column_type: ColumnType::Numeric,
            role: AttributeRole::Dimension,
        },
        ColumnMeta {
            name: "m_low_card".into(),
            column_type: ColumnType::Numeric,
            role: AttributeRole::Measure,
        },
        ColumnMeta {
            name: "m_constant".into(),
            column_type: ColumnType::Numeric,
            role: AttributeRole::Measure,
        },
    ];
    let dict = vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
    let columns = vec![
        // Alternating codes defeat RLE → bit-packed "codes".
        Column::categorical_from_codes((0..rows).map(|i| (i % 3) as u32).collect(), dict.clone())
            .unwrap(),
        // One long run → "rlecodes".
        Column::categorical_from_codes(vec![1; rows], dict).unwrap(),
        // All-distinct adversarial floats → "raw" (a dictionary cannot pay).
        Column::numeric(
            (0..rows)
                .map(|_| f64::from_bits(stream.next() | 1))
                .collect(),
        ),
        // Three distinct values, alternating → "dict".
        Column::numeric((0..rows).map(|i| [1.5, -2.5, 4.0][i % 3]).collect()),
        // One value throughout → "rle".
        Column::numeric(vec![7.25; rows]),
    ];
    let table = Table::new(Schema::new(metas).unwrap(), columns).unwrap();

    let dir = fresh_dir("enc");
    let manifest = vsc2::save(&dir, &table, rows).unwrap();
    let by_name: Vec<(&str, &str)> = manifest
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.chunks[0].encoding.as_str()))
        .collect();
    assert_eq!(
        by_name,
        [
            ("cat_alternating", "codes"),
            ("cat_constant", "rlecodes"),
            ("n_unique", "raw"),
            ("m_low_card", "dict"),
            ("m_constant", "rle"),
        ],
        "encoder stopped choosing an expected encoding"
    );

    let loaded = vsc2::load(&dir).unwrap();
    assert!(
        tables_bit_identical(&loaded.table, &table),
        "round trip through the full encoding mix changed the table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
