//! Seeded L2 violations (secret hygiene). Parsed, never compiled.

pub struct Keys {
    pub group_key: Vec<u8>,
}

#[derive(Debug)]
pub struct Material {
    pub secret: u64,
}
