//! What the front-end suites share.

/// `Debug` of a module with every `NodeId(n)` rewritten to the rank of
/// `n` among the ids that appear.
pub fn normalised(module: &pysrc::Module) -> String {
    const MARK: &str = "NodeId(";
    let text = format!("{module:?}");
    let id_at = |rest: &str| -> (u32, usize) {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        (
            rest[..digits].parse().expect("NodeId prints digits"),
            digits,
        )
    };
    let mut ids: Vec<u32> = text
        .match_indices(MARK)
        .map(|(at, _)| id_at(&text[at + MARK.len()..]).0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find(MARK) {
        let after = at + MARK.len();
        out.push_str(&rest[..after]);
        let (id, digits) = id_at(&rest[after..]);
        let rank = ids.binary_search(&id).expect("collected above");
        out.push_str(&rank.to_string());
        rest = &rest[after + digits..];
    }
    out.push_str(rest);
    out
}
