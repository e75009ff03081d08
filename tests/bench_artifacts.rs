//! The committed `BENCH_*.json` artifacts decode into the typed records the
//! experiments write and re-encode, through each experiment's own writer,
//! to the exact committed bytes: the record codec is the artifact schema.

use asgd_bench::check::read_rows;
use asgd_bench::experiments::{ingest, serving, serving_net, sparse_scaling};
use asgd_ingest::IngestReport;
use asyncsgd::prelude::*;
use std::path::Path;

#[test]
fn committed_bench_files_re_encode_byte_for_byte() {
    type ReEncode = fn(&Path) -> String;
    let cases: [(&str, ReEncode); 5] = [
        ("BENCH_ingest.json", |p| {
            ingest::to_json(&read_rows::<IngestReport>(p).unwrap()).to_json_pretty()
        }),
        ("BENCH_net.json", |p| {
            serving_net::to_json(&read_rows::<serving_net::Row>(p).unwrap()).to_json_pretty()
        }),
        ("BENCH_serving.json", |p| {
            serving::to_json(&read_rows::<serving::Row>(p).unwrap()).to_json_pretty()
        }),
        ("BENCH_sparse_path.json", |p| {
            sparse_scaling::to_json(&read_rows::<sparse_scaling::Row>(p).unwrap()).to_json_pretty()
        }),
        ("BENCH_validation.json", |p| {
            let text = std::fs::read_to_string(p).unwrap();
            ValidationReport::from_json(&text).unwrap().to_json_pretty()
        }),
    ];
    for (name, re_encode) in cases {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let committed = std::fs::read_to_string(&path).expect("artifact is committed");
        assert_eq!(re_encode(&path) + "\n", committed, "{name} changed bytes");
    }
}
