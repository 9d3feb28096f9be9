//! The spec surface over its whole corpus — the 10 builtins and the six
//! `perfbench/specs/*.scn`: canonical renderings pinned byte for byte,
//! and the parser total over every single-line mutation of every file.

use avmem::harness::PredicateChoice;
use avmem_scenario::{builtin, parse_spec};
use avmem_util::{Rng, SplitMix64};

/// `(label, spec text)` of every spec the repository ships, builtins in
/// presentation order, then the benchmark's specs by file name.
fn corpus() -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = builtin::builtin_names()
        .into_iter()
        .map(|name| {
            let source = builtin::builtin_source(name).expect("listed builtin");
            (format!("builtin {name}"), source.to_string())
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/specs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("perfbench/specs exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable spec file");
        corpus.push((format!("perfbench/specs/{name}"), text));
    }
    assert_eq!(corpus.len(), 16, "10 builtins and six benchmark specs");
    corpus
}

/// The golden was written by the hand-written renderer this format
/// started with (PR 21's tree): a renderer change that moves one byte of
/// any shipped spec fails here.
#[test]
fn canonical_renderings_match_the_golden() {
    let mut rendered = String::new();
    for (label, text) in corpus() {
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        spec.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        rendered.push_str(&format!("### {label}\n{}", spec.render()));
    }
    let golden = include_str!("golden/renderings.txt");
    let differing = rendered.lines().zip(golden.lines()).find(|(got, want)| got != want);
    assert!(
        rendered == golden,
        "renderings moved from tests/golden/renderings.txt; first differing line: {differing:?}"
    );
}

/// `[predicate]` grew §2.1's rule family; every shipped spec, none of
/// which names a rule, still builds the paper's I.B + II.B predicate
/// with `c₁ = 2.5` and `c₂ = 2.0`.
#[test]
fn every_shipped_spec_keeps_the_paper_predicate() {
    for (label, text) in corpus() {
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(spec.predicate, PredicateChoice::paper_default(), "{label}");
    }
}

/// Every line of every shipped spec deleted, duplicated, truncated at
/// each byte and bit-flipped: the parser answers `Ok` or a `ParseError`
/// whose line exists — never a panic, never line 0.
#[test]
fn every_single_line_mutation_parses_or_fails_with_a_line() {
    fn judge(label: &str, what: &str, text: &str) {
        if let Err(err) = parse_spec(text) {
            // A mutation may glue or drop the final newline.
            let lines = text.lines().count().max(1);
            assert!(
                (1..=lines).contains(&err.line),
                "{label}, {what}: line {} of {lines}: {err}",
                err.line
            );
        }
    }
    let mut rng = SplitMix64::new(0x5ca1_ab1e);
    for (label, text) in corpus() {
        let lines: Vec<&str> = text.lines().collect();
        let rebuild = |i: usize, replacement: &[&str]| -> String {
            let mut out: Vec<&str> = lines[..i].to_vec();
            out.extend_from_slice(replacement);
            out.extend_from_slice(&lines[i + 1..]);
            out.join("\n") + "\n"
        };
        for (i, line) in lines.iter().enumerate() {
            let at = format!("line {}", i + 1);
            judge(&label, &format!("{at} deleted"), &rebuild(i, &[]));
            judge(&label, &format!("{at} duplicated"), &rebuild(i, &[line, line]));
            for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                judge(&label, &format!("{at} cut at {cut}"), &rebuild(i, &[&line[..cut]]));
            }
            for _ in 0..8 {
                if line.is_empty() {
                    break;
                }
                let mut bytes = line.as_bytes().to_vec();
                let byte = rng.index(bytes.len());
                bytes[byte] ^= 1 << rng.index(8);
                let flipped = String::from_utf8_lossy(&bytes).into_owned();
                // A flip can create a line break; the line count is
                // taken from the mutated text, so the bound still holds.
                judge(&label, &format!("{at} bit-flipped"), &rebuild(i, &[&flipped]));
            }
        }
        // Truncating the file itself at every byte, mid-line included.
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            judge(&label, &format!("file cut at {cut}"), &text[..cut]);
        }
    }
}
