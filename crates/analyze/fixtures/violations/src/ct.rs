//! Seeded L3 violations (constant-time discipline). Parsed, never compiled.

pub fn verify_tag(tag: &[u8], expected: &[u8]) -> bool {
    if tag.len() != expected.len() {
        return false;
    }
    tag == expected
}

pub fn ct_select(table: &[u8], idx: usize) -> u8 {
    if idx >= table.len() {
        return 0;
    }
    table[idx]
}

pub fn ct_splat(x: u8, on: bool) -> [u8; 4] {
    if !on {
        return [0; 4];
    }
    [x; 4]
}
