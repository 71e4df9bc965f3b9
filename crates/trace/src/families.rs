//! The seven workload families and trace-suite builders.
//!
//! The paper's workload is "531 traces of 10 million consecutive
//! instructions each … from a wide variety of programs (Spec2006, Spec2000,
//! kernels, multimedia, office, server, workstation)". Each family here is
//! a [`SynthParams`] preset whose knobs (dependency distances, instruction
//! mix, code footprint, memory locality, branch predictability) are set to
//! the behaviour class the paper's suite names imply.

use crate::arena::{ArenaSink, TraceArena};
use crate::error::TraceError;
use crate::synth::{Generator, MemMix, MixWeights, SynthParams};
use crate::uop::Trace;

/// A workload family of the paper's evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// SPEC integer: pointer-chasing, branchy, short dependency chains.
    SpecInt,
    /// SPEC floating-point: long regular loops, streaming arrays.
    SpecFp,
    /// Multimedia kernels: small hot loops over streams.
    Multimedia,
    /// OS/library kernels (memcpy-style): tiny code, heavy streaming.
    Kernel,
    /// Office productivity: large branchy code footprint.
    Office,
    /// Server: huge code and data footprints, Zipf-popular objects.
    Server,
    /// Workstation: a mix of integer, FP and memory behaviour.
    Workstation,
}

impl WorkloadFamily {
    /// All seven families, in suite order.
    #[must_use]
    pub fn all() -> [WorkloadFamily; 7] {
        [
            Self::SpecInt,
            Self::SpecFp,
            Self::Multimedia,
            Self::Kernel,
            Self::Office,
            Self::Server,
            Self::Workstation,
        ]
    }

    /// Short lowercase name used in trace names and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SpecInt => "specint",
            Self::SpecFp => "specfp",
            Self::Multimedia => "media",
            Self::Kernel => "kernel",
            Self::Office => "office",
            Self::Server => "server",
            Self::Workstation => "workstation",
        }
    }

    /// The calibrated synthesis parameters of this family.
    #[must_use]
    pub fn params(self) -> SynthParams {
        match self {
            Self::SpecInt => SynthParams {
                mix: MixWeights {
                    alu: 0.50,
                    mul: 0.03,
                    div: 0.005,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.27,
                    store: 0.13,
                    nop: 0.015,
                },
                mem_mix: MemMix {
                    stack: 0.35,
                    stream: 0.15,
                    chase: 0.45,
                    zipf: 0.05,
                },
                dep_p: 0.48,
                two_source_fraction: 0.40,
                functions: 100,
                blocks_per_function: (4, 8),
                block_len: (4, 8),
                loop_fraction: 0.25,
                mean_loop_trips: 12.0,
                call_fraction: 0.15,
                branch_biases: vec![(0.92, 4.0), (0.08, 3.0), (0.65, 2.0), (0.5, 1.0)],
                stream_length: 32 * 1024,
                stream_stride: 16,
                chase_working_set: 32 * 1024,
                zipf_objects: 2048,
                zipf_object_size: 64,
                zipf_s: 0.9,
                stack_slots: 8,
            },
            Self::SpecFp => SynthParams {
                mix: MixWeights {
                    alu: 0.28,
                    mul: 0.02,
                    div: 0.0,
                    fp_add: 0.22,
                    fp_mul: 0.18,
                    fp_div: 0.01,
                    load: 0.20,
                    store: 0.08,
                    nop: 0.01,
                },
                mem_mix: MemMix {
                    stack: 0.15,
                    stream: 0.70,
                    chase: 0.10,
                    zipf: 0.05,
                },
                dep_p: 0.34,
                two_source_fraction: 0.55,
                functions: 70,
                blocks_per_function: (3, 6),
                block_len: (8, 14),
                loop_fraction: 0.45,
                mean_loop_trips: 48.0,
                call_fraction: 0.08,
                branch_biases: vec![(0.96, 6.0), (0.04, 3.0), (0.5, 0.5)],
                stream_length: 96 * 1024,
                stream_stride: 8,
                chase_working_set: 32 * 1024,
                zipf_objects: 2048,
                zipf_object_size: 64,
                zipf_s: 0.8,
                stack_slots: 12,
            },
            Self::Multimedia => SynthParams {
                mix: MixWeights {
                    alu: 0.30,
                    mul: 0.02,
                    div: 0.0,
                    fp_add: 0.18,
                    fp_mul: 0.18,
                    fp_div: 0.0,
                    load: 0.20,
                    store: 0.12,
                    nop: 0.02,
                },
                mem_mix: MemMix {
                    stack: 0.20,
                    stream: 0.65,
                    chase: 0.10,
                    zipf: 0.05,
                },
                dep_p: 0.44,
                two_source_fraction: 0.50,
                functions: 30,
                blocks_per_function: (3, 6),
                block_len: (6, 12),
                loop_fraction: 0.50,
                mean_loop_trips: 24.0,
                call_fraction: 0.10,
                branch_biases: vec![(0.94, 5.0), (0.06, 3.0), (0.5, 0.5)],
                stream_length: 48 * 1024,
                stream_stride: 8,
                chase_working_set: 16 * 1024,
                zipf_objects: 1024,
                zipf_object_size: 64,
                zipf_s: 0.8,
                stack_slots: 8,
            },
            Self::Kernel => SynthParams {
                mix: MixWeights {
                    alu: 0.30,
                    mul: 0.01,
                    div: 0.0,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.32,
                    store: 0.26,
                    nop: 0.01,
                },
                mem_mix: MemMix {
                    stack: 0.05,
                    stream: 0.85,
                    chase: 0.05,
                    zipf: 0.05,
                },
                dep_p: 0.55,
                two_source_fraction: 0.35,
                functions: 6,
                blocks_per_function: (2, 4),
                block_len: (6, 10),
                loop_fraction: 0.60,
                mean_loop_trips: 64.0,
                call_fraction: 0.05,
                branch_biases: vec![(0.97, 8.0), (0.03, 2.0)],
                stream_length: 128 * 1024,
                stream_stride: 8,
                chase_working_set: 8 * 1024,
                zipf_objects: 512,
                zipf_object_size: 64,
                zipf_s: 0.7,
                stack_slots: 4,
            },
            Self::Office => SynthParams {
                mix: MixWeights {
                    alu: 0.42,
                    mul: 0.02,
                    div: 0.002,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.26,
                    store: 0.11,
                    nop: 0.02,
                },
                mem_mix: MemMix {
                    stack: 0.40,
                    stream: 0.05,
                    chase: 0.30,
                    zipf: 0.25,
                },
                dep_p: 0.45,
                two_source_fraction: 0.40,
                functions: 400,
                blocks_per_function: (4, 8),
                block_len: (4, 7),
                loop_fraction: 0.15,
                mean_loop_trips: 6.0,
                call_fraction: 0.25,
                branch_biases: vec![(0.85, 4.0), (0.15, 3.0), (0.55, 2.0)],
                stream_length: 32 * 1024,
                stream_stride: 16,
                chase_working_set: 32 * 1024,
                zipf_objects: 4096,
                zipf_object_size: 64,
                zipf_s: 1.0,
                stack_slots: 8,
            },
            Self::Server => SynthParams {
                mix: MixWeights {
                    alu: 0.38,
                    mul: 0.02,
                    div: 0.002,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                    fp_div: 0.0,
                    load: 0.28,
                    store: 0.12,
                    nop: 0.01,
                },
                mem_mix: MemMix {
                    stack: 0.30,
                    stream: 0.05,
                    chase: 0.20,
                    zipf: 0.45,
                },
                dep_p: 0.42,
                two_source_fraction: 0.40,
                functions: 600,
                blocks_per_function: (4, 8),
                block_len: (4, 8),
                loop_fraction: 0.12,
                mean_loop_trips: 5.0,
                call_fraction: 0.30,
                branch_biases: vec![(0.85, 4.0), (0.15, 3.0), (0.55, 2.0)],
                stream_length: 32 * 1024,
                stream_stride: 16,
                chase_working_set: 64 * 1024,
                zipf_objects: 8192,
                zipf_object_size: 64,
                zipf_s: 1.0,
                stack_slots: 8,
            },
            Self::Workstation => SynthParams {
                mix: MixWeights {
                    alu: 0.35,
                    mul: 0.03,
                    div: 0.005,
                    fp_add: 0.08,
                    fp_mul: 0.07,
                    fp_div: 0.005,
                    load: 0.24,
                    store: 0.11,
                    nop: 0.01,
                },
                mem_mix: MemMix {
                    stack: 0.30,
                    stream: 0.30,
                    chase: 0.25,
                    zipf: 0.15,
                },
                dep_p: 0.40,
                two_source_fraction: 0.45,
                functions: 150,
                blocks_per_function: (4, 8),
                block_len: (5, 9),
                loop_fraction: 0.25,
                mean_loop_trips: 16.0,
                call_fraction: 0.18,
                branch_biases: vec![(0.92, 4.0), (0.08, 2.0), (0.65, 2.0), (0.5, 0.5)],
                stream_length: 64 * 1024,
                stream_stride: 16,
                chase_working_set: 48 * 1024,
                zipf_objects: 2048,
                zipf_object_size: 64,
                zipf_s: 0.9,
                stack_slots: 8,
            },
        }
    }
}

impl std::fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A buildable trace specification (family + seed + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    /// Workload family.
    pub family: WorkloadFamily,
    /// Generator seed.
    pub seed: u64,
    /// Dynamic uop count.
    pub len: usize,
}

impl TraceSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(family: WorkloadFamily, seed: u64, len: usize) -> Self {
        Self { family, seed, len }
    }

    /// The trace's canonical name, e.g. `specint-007`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}-{:03}", self.family.name(), self.seed)
    }

    /// Builds the trace.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors (family presets never fail).
    pub fn build(&self) -> Result<Trace, TraceError> {
        let mut generator = Generator::new(&self.family.params(), self.seed)?;
        Ok(generator.generate(self.name(), self.len))
    }

    /// Synthesizes the trace straight into a [`TraceArena`], validating
    /// each uop as it is pushed: the same records as
    /// `TraceArena::from_trace(&self.build()?)`, without ever holding
    /// the 40-byte-per-uop [`Trace`].
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors (family presets never
    /// fail), and [`TraceError::Uop`] for the first invalid uop.
    pub fn build_arena(&self) -> Result<TraceArena, TraceError> {
        let mut generator = Generator::new(&self.family.params(), self.seed)?;
        let mut sink = ArenaSink::new(self.name(), self.len);
        generator.walk(&mut sink, self.len);
        sink.finish()
    }
}

/// Builds a suite of `per_family` traces per family, each `len` uops.
#[must_use]
pub fn suite(per_family: u32, len: usize) -> Vec<TraceSpec> {
    let mut specs = Vec::new();
    for family in WorkloadFamily::all() {
        for seed in 0..u64::from(per_family) {
            specs.push(TraceSpec::new(family, seed, len));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_valid_params() {
        for family in WorkloadFamily::all() {
            family
                .params()
                .validate()
                .unwrap_or_else(|e| panic!("{family}: {e}"));
        }
    }

    #[test]
    fn family_names_unique() {
        let names: std::collections::HashSet<_> =
            WorkloadFamily::all().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn suite_shape() {
        for (per_family, len) in [(1, 1_000), (7, 200_000)] {
            let s = suite(per_family, len);
            assert_eq!(s.len(), 7 * per_family as usize);
            assert!(s.iter().all(|t| t.len == len));
            for family in WorkloadFamily::all() {
                let n = s.iter().filter(|t| t.family == family).count();
                assert_eq!(n, per_family as usize);
            }
        }
    }

    #[test]
    fn spec_names_are_stable() {
        let spec = TraceSpec::new(WorkloadFamily::Office, 7, 100);
        assert_eq!(spec.name(), "office-007");
    }

    #[test]
    fn specs_build_named_traces() {
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 2, 500);
        let t = spec.build().unwrap();
        assert_eq!(t.name, "kernel-002");
        assert_eq!(t.len(), 500);
    }
}
