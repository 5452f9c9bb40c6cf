// Seeded L10 violations: public items that nothing outside this file
// names, except from test code or a re-export. Its clean twin,
// `l10_clean.rs`, names the rest.

pub mod orphaned {} // L10: no other file names the module

pub const LIMIT: usize = 8; // L10: only this file reads it

pub static mut HITS: u32 = 0; // L10

pub const fn only_tests_call() -> usize { // L10: tests are not callers
    LIMIT
}

pub use self::reexported as alias;

pub fn reexported() {} // L10: only the re-export above names it

pub fn called_by_the_twin() -> usize { // clean: `l10_clean.rs` calls it
    shared_helper() as usize + total(&[shared::STEP])
}

pub fn named_by_a_caller() {} // clean: a caller outside the tree calls it

pub(crate) fn restricted() {} // clean: rustc's dead-code lint owns pub(crate)

pub struct Widget;

impl Widget {
    pub fn unique_method_name(&self) {} // L10

    pub fn len(&self) -> usize { // clean: the twin names a `len` too
        0
    }
}

impl Clone for Widget {
    fn clone(&self) -> Self { // trait-impl methods carry no `pub`
        Widget
    }
}

// xlint: allow(L10, "tests/it.rs shares it")
pub fn waived_helper() {}

macro_rules! make {
    ($name:ident) => {
        pub fn $name() {} // a macro's `$name` declares nothing here
    };
}

#[cfg(test)]
mod tests {
    pub fn helper() {} // clean: test code is never linted

    #[test]
    fn calls() {
        super::only_tests_call();
        helper();
    }
}
