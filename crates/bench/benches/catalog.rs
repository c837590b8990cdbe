//! Dataset-resolution cost along the catalog's three paths: parsing the
//! original CSV (cold), loading the VSC2 columnar store (warm), and
//! handing out the shared in-memory `Arc<Table>` (cache hit). The spread
//! between the three is the case for the catalog: every session after the
//! first should pay the last price, not the first.

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use viewseeker_catalog::{vsc2, Catalog};
use viewseeker_dataset::csv::{infer_schema, read_csv};

/// A convention-conforming CSV (`m_*` measure, `n_*` numeric dimension,
/// categorical otherwise) large enough for parse cost to dominate.
fn sales_csv(rows: usize) -> String {
    let mut csv = String::with_capacity(rows * 32);
    csv.push_str("region,product,n_age,m_sales\n");
    for i in 0..rows {
        let region = ["west", "east", "north", "south"][i % 4];
        let product = ["widget", "gadget", "gizmo"][i % 3];
        let age = 20 + (i * 7) % 50;
        let sales = 40.0 + (i % 997) as f64 * 0.25;
        csv.push_str(&format!("{region},{product},{age},{sales:.2}\n"));
    }
    csv
}

fn bench_catalog(c: &mut Criterion) {
    let rows = 100_000usize;
    let csv = sales_csv(rows);

    let schema = infer_schema(Cursor::new(csv.as_bytes())).unwrap();
    let table = read_csv(&schema, Cursor::new(csv.as_bytes())).unwrap();

    let dir = std::env::temp_dir().join(format!("vs-bench-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("sales");
    vsc2::save(&store, &table, 0).unwrap();

    let catalog = Catalog::in_memory(1 << 30);
    catalog.put("sales", table).unwrap();

    let mut group = c.benchmark_group("catalog");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_with_input(BenchmarkId::new("cold_csv_parse", rows), &rows, |b, _| {
        b.iter(|| {
            let schema = infer_schema(Cursor::new(csv.as_bytes())).unwrap();
            read_csv(&schema, Cursor::new(csv.as_bytes())).unwrap()
        })
    });
    group.bench_with_input(BenchmarkId::new("warm_vsc2_load", rows), &rows, |b, _| {
        b.iter(|| vsc2::load(&store).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("cache_hit", rows), &rows, |b, _| {
        b.iter(|| catalog.get("sales").unwrap())
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_catalog);
criterion_main!(benches);
