//! Golden output of the operator CLI: `popmon_cli generate 10` (the
//! paper_10 POP with seed-42 traffic), then `passive` and `sampling` on
//! that document, compared byte for byte. Both exact solves stop on node
//! caps only, so the plans are the same on any host.

use std::path::Path;
use std::process::{Command, Output};

fn popmon_cli(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_popmon_cli"))
        .args(args)
        .output()
        .expect("popmon_cli starts");
    assert!(out.status.success(), "popmon_cli {args:?}: {out:?}");
    out
}

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("popmon_cli prints UTF-8")
}

/// Writes the `generate 10` document to a file of this test's own and
/// returns its path.
fn generate_10(name: &str) -> String {
    let doc = popmon_cli(&["generate", "10"]).stdout;
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, doc).expect("write the generated document");
    path.to_str().expect("UTF-8 temp path").to_string()
}

#[test]
fn passive_plan_on_generate_10() {
    let doc = generate_10("cli_golden_passive.txt");
    let out = popmon_cli(&["passive", &doc]);
    assert_eq!(
        text(out.stdout),
        "link_u,link_v\n\
         ac0,bb0\n\
         ac2,bb0\n\
         ac5,bb2\n\
         cust1,ac1\n\
         cust4,ac4\n\
         cust8,ac1\n\
         peer1,bb1\n"
    );
    assert_eq!(
        text(out.stderr),
        "# passive placement: 27 links, 132 traffics, k = 0.95\n\
         # greedy: 14 devices; exact: 7 devices (proven optimal)\n"
    );
}

#[test]
fn sampling_plan_on_generate_10() {
    let doc = generate_10("cli_golden_sampling.txt");
    let out = popmon_cli(&["sampling", &doc]);
    assert_eq!(
        text(out.stdout),
        "link_u,link_v,sampling_rate_percent\n\
         ac0,bb0,100.0\n\
         ac2,bb0,100.0\n\
         cust1,ac1,83.0\n\
         cust4,ac4,100.0\n\
         cust8,ac1,100.0\n\
         peer1,bb1,100.0\n"
    );
    assert_eq!(
        text(out.stderr),
        "# PPME(h = 0, k = 0.9): 6 devices, setup 6.00, exploitation 2.91 \
         (within 2% of optimal)\n"
    );
}
