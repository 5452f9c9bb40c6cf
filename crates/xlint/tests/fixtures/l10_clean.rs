// The clean twin of `l10_unreferenced.rs`: every public item here is
// named by non-test code in the seeded file, and this file names the
// seeded file's live items.

pub fn shared_helper() -> u32 { // clean: the seeded file calls it
    called_by_the_twin() as u32
}

pub mod shared {
    pub const STEP: u32 = 2; // clean: the seeded file reads `shared::STEP`
}

pub fn total(items: &[u32]) -> usize {
    items.len() + shared::STEP as usize + total_of_nothing()
}

fn total_of_nothing() -> usize {
    0
}
