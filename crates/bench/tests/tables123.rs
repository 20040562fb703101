//! Tables 1–3 are pinned to the committed `results/tables123.txt`, which
//! holds `exp_tables123()` byte for byte (the `tables123` binary prints
//! it with one trailing newline more).

#[test]
fn tables123_match_committed_results() {
    let committed = include_str!("../../../results/tables123.txt");
    assert_eq!(mx_bench::exp_tables123(), committed);
}
