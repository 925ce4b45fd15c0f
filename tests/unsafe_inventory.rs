//! The `unsafe` inventory of the first-party crates, pinned.
//!
//! Walks `crates/*/src/**/*.rs`, counts the `unsafe` keywords outside
//! comments and literals per file, and compares the result with
//! [`INVENTORY`]. Every hit must also carry its argument: a `// SAFETY:`
//! comment within the three lines above it, or, for an `unsafe fn`
//! declaration, a `# Safety` section in its doc comment. A change that adds
//! an `unsafe` re-pins the inventory and states its argument in the same
//! commit; a change that removes one re-pins it too.

use std::collections::BTreeMap;
use std::path::Path;

/// `(file under crates/, unsafe keywords)` for every file that has any.
const INVENTORY: [(&str, usize); 2] = [
    // The unchecked operand reads of the tile (two), the AVX2 instantiation
    // (`unsafe fn`) and its two call sites, one of them in a unit test.
    ("tensor/src/gemm.rs", 5),
    // The f32-section block copy on write.
    ("util/src/codec.rs", 1),
];

/// `src` with every comment and every string and char literal blanked to
/// spaces; line breaks are kept, so line numbers still match.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let blank = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend(bytes.iter().map(|&c| if c == b'\n' { b'\n' } else { b' ' }));
    };
    let mut i = 0;
    while i < b.len() {
        // `r"…"`, `r#"…"#`, `br"…"`: the number of `#`s, when a raw string
        // starts here.
        let raw = (b[i] == b'r'
            && (i == 0
                || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
                || b[i - 1] == b'b'))
            .then(|| b[i + 1..].iter().take_while(|&&c| c == b'#').count())
            .filter(|&hashes| b.get(i + 1 + hashes) == Some(&b'"'));
        let end = if b[i..].starts_with(b"//") {
            i + b[i..].iter().position(|&c| c == b'\n').unwrap_or(b.len() - i)
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                if b[j..].starts_with(b"/*") {
                    depth += 1;
                    j += 2;
                } else if b[j..].starts_with(b"*/") {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break j;
                    }
                } else {
                    j += 1;
                }
            }
        } else if b[i] == b'"' {
            let mut j = i + 1;
            while b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            j + 1
        } else if let Some(hashes) = raw {
            let close: Vec<u8> = std::iter::once(b'"').chain(vec![b'#'; hashes]).collect();
            let body = i + hashes + 2;
            body + b[body..].windows(close.len()).position(|w| w == close).unwrap() + close.len()
        } else if b[i] == b'\'' && b.get(i + 1) == Some(&b'\\') {
            i + 2 + b[i + 2..].iter().position(|&c| c == b'\'').unwrap() + 1
        } else if b[i] == b'\'' && b.get(i + 2) == Some(&b'\'') {
            i + 3
        } else {
            out.push(b[i]);
            i += 1;
            continue;
        };
        blank(&mut out, &b[i..end]);
        i = end;
    }
    String::from_utf8(out).expect("only ASCII bytes were replaced")
}

/// Byte offsets of `unsafe` as a whole word in `line`.
fn unsafe_words(line: &str) -> Vec<usize> {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let b = line.as_bytes();
    line.match_indices("unsafe")
        .map(|(at, _)| at)
        .filter(|&at| {
            (at == 0 || !is_ident(b[at - 1])) && b.get(at + 6).is_none_or(|&c| !is_ident(c))
        })
        .collect()
}

/// Whether the `unsafe` at `line` states its argument: a `// SAFETY:`
/// comment in the three lines above, or, for `unsafe fn`, a `# Safety`
/// heading in the doc comment above its attributes.
fn has_argument(original: &[&str], code: &[&str], line: usize, at: usize) -> bool {
    if original[line.saturating_sub(3)..line]
        .iter()
        .any(|l| l.trim_start().starts_with("// SAFETY:"))
    {
        return true;
    }
    if !code[line][at + 6..].trim_start().starts_with("fn ") {
        return false;
    }
    original[..line]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .skip_while(|l| l.starts_with("#["))
        .take_while(|l| l.starts_with("///"))
        .any(|l| l == "/// # Safety")
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unsafe_sites_are_pinned_and_each_states_its_argument() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "the walk found only {} files", files.len());

    let mut found = BTreeMap::new();
    let mut unargued = Vec::new();
    for path in &files {
        let name = path.strip_prefix(&crates).unwrap().to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path).unwrap();
        let code = code_only(&src);
        let (original, code): (Vec<&str>, Vec<&str>) =
            (src.lines().collect(), code.lines().collect());
        for (line, text) in code.iter().enumerate() {
            for at in unsafe_words(text) {
                *found.entry(name.clone()).or_insert(0) += 1;
                if !has_argument(&original, &code, line, at) {
                    unargued.push(format!("{name}:{}", line + 1));
                }
            }
        }
    }
    let pinned: BTreeMap<String, usize> =
        INVENTORY.iter().map(|&(file, n)| (file.to_string(), n)).collect();
    assert_eq!(found, pinned, "the `unsafe` inventory moved; re-pin it with each new argument");
    assert!(unargued.is_empty(), "`unsafe` without a stated argument at {unargued:?}");
}

#[test]
fn the_scanner_skips_comments_and_literals_but_not_code() {
    let src = "let a = \"unsafe // not a comment\"; // unsafe\n\
               /* unsafe /* nested */ unsafe */ let c = '\"';\n\
               let r = r#\"unsafe \" still\"#; let l: &'static str = \"\";\n\
               let d = unsafe_name; unsafe { x }\n";
    let code = code_only(src);
    let hits: Vec<Vec<usize>> = code.lines().map(unsafe_words).collect();
    assert_eq!(hits, vec![vec![], vec![], vec![], vec![21]]);
    assert_eq!(code.lines().count(), 4);
}
