//! Seeded input generation. Everything a workload analyzes is made here
//! from the run's seed; the program under test only ever sees the
//! rendered `.sasm` sources.

use crate::stats::Fnv;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::{Config, Program};

/// An independent random stream per purpose, so that resizing one
/// input set never shifts another.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `n` forward-only `proggen` programs of `len` instructions, each with
/// its concrete initial configuration.
pub fn proggen(seed: u64, stream: u64, n: usize, len: usize) -> Vec<(Program, Config)> {
    let mut rng = rng(seed, stream);
    let opts = ProgGenOptions {
        len,
        ..ProgGenOptions::default()
    };
    (0..n)
        .map(|_| {
            let program = random_program(&mut rng, &opts);
            let config = random_config(&mut rng, &opts);
            (program, config)
        })
        .collect()
}

/// A program and its configuration as `.sasm` text.
pub fn render(program: &Program, config: &Config) -> String {
    sct_asm::disassemble_with(program, Some(config))
}

/// A named `.sasm` source: one file of a corpus.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub name: String,
    pub source: String,
}

/// Hash a set of sources (names and text), to check that a seed always
/// generates the same inputs.
pub fn hash_sources<'a>(files: impl IntoIterator<Item = &'a SourceFile>) -> u64 {
    let mut h = Fnv::default();
    for f in files {
        h.write(f.name.as_bytes());
        h.write(&[0]);
        h.write(f.source.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Assemble a generated source; generated text always assembles.
pub fn assemble(file: &SourceFile) -> sct_asm::Assembled {
    sct_asm::assemble(&file.source)
        .unwrap_or_else(|e| panic!("generated source {} does not assemble: {e}", file.name))
}
