//! The five workspace rules, each a pure function over lexed source.
//!
//! Rule functions return findings as `(line, message)` pairs; the caller
//! ([`crate::analyze`]) attaches the rule id and file path, applies
//! `lint:allow` suppression, and handles path scoping.  Keeping the rules
//! pure over [`Lexed`] is what lets the fixture tests feed them known-bad
//! snippets directly.

use crate::lexer::{matching_brace, Lexed, Tok, TokKind};

/// One raw finding before path/rule attribution.
#[derive(Debug, Clone)]
pub struct RuleFinding {
    pub line: u32,
    pub message: String,
}

fn finding(line: u32, message: impl Into<String>) -> RuleFinding {
    RuleFinding {
        line,
        message: message.into(),
    }
}

/// Rust keywords that can legally precede `[` without the bracket being an
/// index expression (array types, slice patterns, `&mut [T]`, ...).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// L1 — panic-freedom: no `unwrap`/`expect`/`panic!`/`unreachable!`/
/// `todo!`/`unimplemented!` or unchecked slice indexing in shipping code.
pub fn panic_freedom(lexed: &Lexed) -> Vec<RuleFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if lexed.test_mask[i] {
            continue;
        }
        if t.kind == TokKind::Ident {
            let prev_dot = i > 0 && toks[i - 1].is_punct('.');
            let next_bang = i + 1 < toks.len() && toks[i + 1].is_punct('!');
            let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');
            match t.text.as_str() {
                "unwrap" | "expect" if prev_dot && next_paren => out.push(finding(
                    t.line,
                    format!(
                        "`.{}()` can panic on the query/wire path — propagate a typed error",
                        t.text
                    ),
                )),
                "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => out.push(
                    finding(t.line, format!("`{}!` is banned in shipping code", t.text)),
                ),
                _ => {}
            }
        }
        if t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let indexing = match p.kind {
                TokKind::Ident => !is_keyword(&p.text),
                TokKind::Punct => p.text == ")" || p.text == "]",
                _ => false,
            };
            if indexing {
                out.push(finding(
                    t.line,
                    "slice/array index can panic — use `.get(..)` or a checked pattern",
                ));
            }
        }
    }
    out
}

/// L4 — float-ordering: distance values are ordered with `total_cmp`, never
/// `partial_cmp` (NaN-lossy) or the `f64::max`/`f64::min` fold idiom.
pub fn float_ordering(lexed: &Lexed) -> Vec<RuleFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if lexed.test_mask[i] {
            continue;
        }
        if t.is_ident("partial_cmp") && i > 0 && toks[i - 1].is_punct('.') {
            out.push(finding(
                t.line,
                "`.partial_cmp()` on distances silently misorders NaN — use `total_cmp`",
            ));
        }
        if (t.is_ident("max") || t.is_ident("min"))
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("f64")
        {
            out.push(finding(
                t.line,
                format!(
                    "`f64::{}` drops NaN operands — fold with `total_cmp` or an explicit loop",
                    t.text
                ),
            ));
        }
    }
    out
}

/// L3 — cache-invalidation: every `&mut self` method in an `impl` block
/// mentioning `CellSet` that touches `self.cells` must call the
/// `invalidate_caches` helper (the PR 8 OnceLock bug class).
pub fn cache_invalidation(lexed: &Lexed) -> Vec<RuleFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Gather the impl header up to `{`; in scope iff it names CellSet.
            let mut j = i + 1;
            let mut names_cellset = false;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_ident("CellSet") {
                    names_cellset = true;
                }
                j += 1;
            }
            if names_cellset && j < toks.len() {
                if let Some(close) = matching_brace(toks, j, '{', '}') {
                    scan_impl_methods(lexed, j + 1, close, &mut out);
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

fn scan_impl_methods(lexed: &Lexed, start: usize, end: usize, out: &mut Vec<RuleFinding>) {
    let toks = &lexed.toks;
    let mut j = start;
    while j < end {
        if !toks[j].is_ident("fn") || lexed.test_mask[j] {
            j += 1;
            continue;
        }
        let Some(name_tok) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            j += 1;
            continue;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        // Parameter list.
        let mut p = j + 2;
        while p < end && !toks[p].is_punct('(') {
            p += 1;
        }
        let Some(params_close) = matching_brace(toks, p, '(', ')') else {
            break;
        };
        let takes_mut_self = (p..params_close).any(|k| {
            toks[k].is_ident("self")
                && k >= 2
                && toks[k - 1].is_ident("mut")
                && (toks[k - 2].is_punct('&') || toks[k - 2].kind == TokKind::Lifetime)
        });
        // Body: next `{` after the parameter list (return types here are
        // brace-free).
        let mut b = params_close + 1;
        while b < end && !toks[b].is_punct('{') {
            if toks[b].is_punct(';') {
                break; // trait-method signature without a body
            }
            b += 1;
        }
        if b >= end || !toks[b].is_punct('{') {
            j = params_close + 1;
            continue;
        }
        let Some(body_close) = matching_brace(toks, b, '{', '}') else {
            break;
        };
        if takes_mut_self && name != "invalidate_caches" {
            let touches_cells = (b..body_close).any(|k| {
                toks[k].is_ident("cells")
                    && k >= 2
                    && toks[k - 1].is_punct('.')
                    && toks[k - 2].is_ident("self")
            });
            let invalidates = (b..body_close).any(|k| toks[k].is_ident("invalidate_caches"));
            if touches_cells && !invalidates {
                out.push(finding(
                    line,
                    format!(
                        "`&mut self` method `{name}` touches `self.cells` without calling \
                         `invalidate_caches()` — stale OnceLock verify state"
                    ),
                ));
            }
        }
        j = body_close + 1;
    }
}

/// L5 — metrics-registration: every instrument call carrying a string-literal
/// metric name lives in the pre-registration block (`fn new` of an `impl`
/// whose type name ends in `Metrics`); inside the block names are registered
/// exactly once per (kind, name, labels) and are prometheus-shaped.
pub fn metrics_registration(lexed: &Lexed) -> Vec<RuleFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    // 1. Locate pre-registration blocks.
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            let mut j = i + 1;
            let mut is_metrics = false;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].kind == TokKind::Ident && toks[j].text.ends_with("Metrics") {
                    is_metrics = true;
                }
                j += 1;
            }
            if is_metrics && j < toks.len() {
                if let Some(close) = matching_brace(toks, j, '{', '}') {
                    let mut k = j + 1;
                    while k < close {
                        if toks[k].is_ident("fn")
                            && toks.get(k + 1).is_some_and(|t| t.is_ident("new"))
                        {
                            let mut b = k + 2;
                            while b < close && !toks[b].is_punct('{') {
                                b += 1;
                            }
                            if let Some(bc) = matching_brace(toks, b, '{', '}') {
                                blocks.push((b, bc));
                                k = bc + 1;
                                continue;
                            }
                        }
                        k += 1;
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }

    // 2. Every instrument call with a literal name, anywhere in the file.
    let mut registered: Vec<(String, String, String, u32)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if lexed.test_mask[k] {
            continue;
        }
        let is_instr = t.is_ident("counter") || t.is_ident("gauge") || t.is_ident("histogram");
        if !is_instr
            || k == 0
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            || toks.get(k + 2).map(|n| n.kind) != Some(TokKind::Str)
        {
            continue;
        }
        let name = toks[k + 2].text.clone();
        let in_block = blocks.iter().any(|&(b, e)| k > b && k < e);
        if !in_block {
            out.push(finding(
                t.line,
                format!(
                    "metric \"{name}\" registered outside the pre-registration block \
                     — register the handle in `Metrics::new` and reuse it"
                ),
            ));
            continue;
        }
        if !valid_metric_name(&name) {
            out.push(finding(
                t.line,
                format!("metric name \"{name}\" is not prometheus-shaped ([a-z_][a-z0-9_]*)"),
            ));
        }
        let labels = label_signature(toks, k + 1);
        registered.push((t.text.clone(), name, labels, t.line));
    }

    // 3. Duplicates and cross-kind conflicts inside the block.
    for (idx, (kind, name, labels, line)) in registered.iter().enumerate() {
        for (pkind, pname, plabels, _) in &registered[..idx] {
            if name == pname && labels == plabels && kind == pkind {
                out.push(finding(
                    *line,
                    format!("metric \"{name}\" registered twice with identical labels"),
                ));
                break;
            }
            if name == pname && kind != pkind {
                out.push(finding(
                    *line,
                    format!(
                        "metric \"{name}\" registered as both `{pkind}` and `{kind}` \
                         — one name, one instrument kind"
                    ),
                ));
                break;
            }
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Concatenates the string literals of an instrument call's label argument so
/// two registrations of the same name can be told apart (`("phase",
/// "traversal")` vs `("phase", "verify")`).
fn label_signature(toks: &[Tok], open_paren: usize) -> String {
    let Some(close) = matching_brace(toks, open_paren, '(', ')') else {
        return String::new();
    };
    toks[open_paren + 3..close]
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// Everything L2 needs to cross-check the wire protocol.
pub struct WireInputs<'a> {
    /// Lexed `crates/multisource/src/message.rs`.
    pub message: &'a Lexed,
    /// Lexed `crates/multisource/tests/transport.rs` (fuzz-tag list).
    pub transport: Option<&'a Lexed>,
    /// Lexed `crates/obs/src/metrics.rs` (`MetricValue`, whose inner tags
    /// live in message.rs).
    pub metrics: Option<&'a Lexed>,
    /// Raw `README.md` text (protocol table).
    pub readme: Option<&'a str>,
}

/// Collects one tag family's `const <PREFIX>X: u8 = N;` constants from
/// message.rs, flagging constants of the family that are not literal `u8`s
/// (the cross-checks below can only follow literal values).
fn tag_consts(toks: &[Tok], prefix: &str, out: &mut Vec<RuleFinding>) -> Vec<(String, u64, u32)> {
    let mut consts: Vec<(String, u64, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident || !name.text.starts_with(prefix) {
            continue;
        }
        // name : u8 = <num>
        let val = toks
            .get(i + 5)
            .filter(|v| {
                v.kind == TokKind::Num
                    && toks[i + 2].is_punct(':')
                    && toks[i + 3].is_ident("u8")
                    && toks[i + 4].is_punct('=')
            })
            .and_then(|v| v.text.parse::<u64>().ok());
        match val {
            Some(v) => consts.push((name.text.clone(), v, name.line)),
            None => out.push(finding(
                name.line,
                format!("`{}` must be a literal `u8` tag constant", name.text),
            )),
        }
    }
    consts
}

/// L2 — wire-tags: every `Message` variant's `TAG_*` constant exists, has a
/// distinct value, and appears in `encode`, `decode`, the transport fuzz-tag
/// list, and the README protocol table; and every inner enum framed inside a
/// variant's payload (`CellOp`, `MetricValue`) has its own named tag
/// family (`OP_TAG_*`, `METRIC_TAG_*`) wired through both `encode` and
/// `decode`.  All findings anchor to message.rs lines (the variant or
/// constant that is out of sync).
pub fn wire_tags(inp: &WireInputs) -> Vec<RuleFinding> {
    let toks = &inp.message.toks;
    let mut out = Vec::new();

    // TAG_* constants: `const TAG_X: u8 = N;`.  The prefix match is exact
    // on the name's start, so the inner families (`OP_TAG_*`,
    // `METRIC_TAG_*`) stay out of the frame-level set.
    let consts = tag_consts(toks, "TAG_", &mut out);

    let variants = enum_variants(toks, "Message");
    if variants.is_empty() {
        out.push(finding(
            1,
            "no `enum Message` found to check wire tags against",
        ));
        return out;
    }

    // Duplicate tag values.
    for (idx, (name, v, line)) in consts.iter().enumerate() {
        if let Some((prev, _, _)) = consts[..idx].iter().find(|(_, pv, _)| pv == v) {
            out.push(finding(
                *line,
                format!("tag value {v} of `{name}` already used by `{prev}`"),
            ));
        }
    }

    // Variant <-> constant bijection.
    for (vname, vline) in &variants {
        let expected = format!("TAG_{}", screaming(vname));
        if !consts.iter().any(|(c, _, _)| *c == expected) {
            out.push(finding(
                *vline,
                format!("variant `{vname}` has no `{expected}` wire-tag constant"),
            ));
        }
    }
    let variant_consts: Vec<String> = variants
        .iter()
        .map(|(v, _)| format!("TAG_{}", screaming(v)))
        .collect();
    for (cname, _, cline) in &consts {
        if !variant_consts.iter().any(|e| e == cname) {
            out.push(finding(
                *cline,
                format!("`{cname}` does not correspond to any `Message` variant"),
            ));
        }
    }

    // Reference checks: encode, decode, fuzz list, README table.
    let encode_idents = fn_body_idents(toks, "encode");
    let decode_idents = fn_body_idents(toks, "decode");
    let transport_idents: Option<Vec<String>> = inp.transport.map(|t| {
        t.toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    });
    for (cname, value, cline) in &consts {
        if !variant_consts.iter().any(|e| e == cname) {
            continue; // already reported above
        }
        if !encode_idents.iter().any(|i| i == cname) {
            out.push(finding(
                *cline,
                format!("`{cname}` is never used in `encode`"),
            ));
        }
        if !decode_idents.iter().any(|i| i == cname) {
            out.push(finding(
                *cline,
                format!("`{cname}` is never matched in `decode`"),
            ));
        }
        if let Some(ids) = &transport_idents {
            if !ids.iter().any(|i| i == cname) {
                out.push(finding(
                    *cline,
                    format!("`{cname}` is missing from the transport fuzz-tag list"),
                ));
            }
        }
        if let Some(readme) = inp.readme {
            let variant = variants
                .iter()
                .find(|(v, _)| format!("TAG_{}", screaming(v)) == *cname)
                .map(|(v, _)| v.as_str())
                .unwrap_or("");
            if !readme_table_has(readme, *value, variant) {
                out.push(finding(
                    *cline,
                    format!(
                        "tag {value} (`{variant}`) is missing from the README wire-protocol table"
                    ),
                ));
            }
        }
    }

    // Inner tag families: each enum framed inside a variant's payload gets
    // one byte of tag on the wire, named in message.rs and wired through
    // both codec directions.  `CellOp` is declared in message.rs itself;
    // `MetricValue` lives in obs, so its variant list is read from the
    // lexed metrics file when available.
    inner_tag_family(
        toks,
        Some(toks),
        "CellOp",
        "OP_TAG_",
        &encode_idents,
        &decode_idents,
        &mut out,
    );
    inner_tag_family(
        toks,
        inp.metrics.map(|m| m.toks.as_slice()),
        "MetricValue",
        "METRIC_TAG_",
        &encode_idents,
        &decode_idents,
        &mut out,
    );
    out
}

/// Cross-checks one inner tag family: the variants of `enum_name` (parsed
/// from `enum_toks`, when that file is available) must biject with literal
/// `{prefix}{SCREAMING}` constants in message.rs, distinct-valued within the
/// family and referenced in both `encode` and `decode`.  Findings anchor to
/// message.rs; when the enum is declared elsewhere, missing-constant
/// findings anchor to line 1.
fn inner_tag_family(
    message_toks: &[Tok],
    enum_toks: Option<&[Tok]>,
    enum_name: &str,
    prefix: &str,
    encode_idents: &[String],
    decode_idents: &[String],
    out: &mut Vec<RuleFinding>,
) {
    let same_file = enum_toks.is_some_and(|t| std::ptr::eq(t, message_toks));
    let consts = tag_consts(message_toks, prefix, out);

    // Duplicate tag values within the family (families are independent
    // namespaces: each is disambiguated by its enclosing variant's payload).
    for (idx, (name, v, line)) in consts.iter().enumerate() {
        if let Some((prev, _, _)) = consts[..idx].iter().find(|(_, pv, _)| pv == v) {
            out.push(finding(
                *line,
                format!("tag value {v} of `{name}` already used by `{prev}`"),
            ));
        }
    }

    // Variant <-> constant bijection, when the enum's source is on hand.
    if let Some(enum_toks) = enum_toks {
        let variants = enum_variants(enum_toks, enum_name);
        if variants.is_empty() {
            out.push(finding(
                1,
                format!("no `enum {enum_name}` found to check inner wire tags against"),
            ));
        } else {
            for (vname, vline) in &variants {
                let expected = format!("{prefix}{}", screaming(vname));
                if !consts.iter().any(|(c, _, _)| *c == expected) {
                    out.push(finding(
                        if same_file { *vline } else { 1 },
                        format!(
                            "variant `{enum_name}::{vname}` has no `{expected}` inner wire-tag constant"
                        ),
                    ));
                }
            }
            let expected: Vec<String> = variants
                .iter()
                .map(|(v, _)| format!("{prefix}{}", screaming(v)))
                .collect();
            for (cname, _, cline) in &consts {
                if !expected.iter().any(|e| e == cname) {
                    out.push(finding(
                        *cline,
                        format!("`{cname}` does not correspond to any `{enum_name}` variant"),
                    ));
                }
            }
        }
    }

    // Both codec directions must go through the named constant.
    for (cname, _, cline) in &consts {
        if !encode_idents.iter().any(|i| i == cname) {
            out.push(finding(
                *cline,
                format!("`{cname}` is never used in `encode`"),
            ));
        }
        if !decode_idents.iter().any(|i| i == cname) {
            out.push(finding(
                *cline,
                format!("`{cname}` is never matched in `decode`"),
            ));
        }
    }
}

/// `OverlapQuery` → `OVERLAP_QUERY`, `KnnReply` → `KNN_REPLY`.
fn screaming(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// Variant names (with lines) of `enum <name> { ... }`.
fn enum_variants(toks: &[Tok], name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        let mut open = i + 2;
        while open < toks.len() && !toks[open].is_punct('{') {
            open += 1;
        }
        let Some(close) = matching_brace(toks, open, '{', '}') else {
            break;
        };
        let mut k = open + 1;
        while k < close {
            // Skip variant attributes.
            while k + 1 < close && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                match matching_brace(toks, k + 1, '[', ']') {
                    Some(e) => k = e + 1,
                    None => return variants,
                }
            }
            if k >= close {
                break;
            }
            if toks[k].kind == TokKind::Ident {
                variants.push((toks[k].text.clone(), toks[k].line));
            }
            // Advance past this variant's payload to the next top-level `,`.
            let mut depth = 0usize;
            while k < close {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(',') && depth == 0 {
                    k += 1;
                    break;
                }
                k += 1;
            }
        }
        break;
    }
    variants
}

/// Identifiers inside the body of `fn <name>`.
fn fn_body_idents(toks: &[Tok], name: &str) -> Vec<String> {
    for i in 0..toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let mut b = i + 2;
            while b < toks.len() && !toks[b].is_punct('{') {
                b += 1;
            }
            if let Some(close) = matching_brace(toks, b, '{', '}') {
                return toks[b..close]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
            }
        }
    }
    Vec::new()
}

/// True when the README has a table row `| <value> | ...<variant>... |`.
fn readme_table_has(readme: &str, value: u64, variant: &str) -> bool {
    let value = value.to_string();
    readme.lines().any(|line| {
        let cells: Vec<&str> = line.split('|').collect();
        cells.len() >= 3 && cells[1].trim() == value && cells[2].contains(variant)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn screaming_case_handles_acronym_style_variants() {
        assert_eq!(screaming("OverlapQuery"), "OVERLAP_QUERY");
        assert_eq!(screaming("KnnReply"), "KNN_REPLY");
        assert_eq!(screaming("Error"), "ERROR");
    }

    #[test]
    fn panic_freedom_ignores_test_items_and_comments() {
        let src = "\
fn live(x: Option<u8>) -> u8 { x.unwrap() }
// x.unwrap() in a comment is fine
#[cfg(test)]
mod tests {
    fn t(x: Option<u8>) -> u8 { x.unwrap() }
}
";
        let found = panic_freedom(&lex(src));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn slice_index_heuristic_skips_types_and_patterns() {
        let src = "\
fn f(xs: &[u8], buf: [u8; 4]) -> u8 {
    let [a, _b] = [xs[0], buf[1]];
    a
}
";
        let found = panic_freedom(&lex(src));
        // Exactly the two real index expressions on line 2.
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.line == 2));
    }

    #[test]
    fn float_ordering_flags_partial_cmp_calls_not_impls() {
        let src = "\
fn order(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }
impl PartialOrd for D { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }
fn fold(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NAN, f64::max) }
";
        let found = float_ordering(&lex(src));
        let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 3]);
    }

    #[test]
    fn metrics_duplicate_registration_is_flagged() {
        let src = "\
impl FooMetrics {
    fn new(reg: &Registry) -> Self {
        let a = reg.counter(\"dup_total\", &[]);
        let b = reg.counter(\"dup_total\", &[]);
        Self { a, b }
    }
}
";
        let found = metrics_registration(&lex(src));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn metrics_outside_block_is_flagged() {
        let src = "fn hot(reg: &Registry) { reg.counter(\"late_total\", &[]).inc(); }";
        let found = metrics_registration(&lex(src));
        assert_eq!(found.len(), 1);
    }
}
