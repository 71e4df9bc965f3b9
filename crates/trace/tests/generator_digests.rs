//! Pins the generators' output.
//!
//! A result key hashes only a trace's spec (family, seed, length), so a
//! stored result is trusted to describe whatever uops that spec yields.
//! These digests pin each family's seed-0 stream at 20 000 uops: a
//! change to synthesis that moves any uop field fails here, not as a
//! silently stale cache.

use lowvcc_trace::{Reg, TraceSpec, Uop, UopKind, WorkloadFamily};

const LEN: usize = 20_000;

/// 64-bit FNV-1a over the bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn reg(&mut self, reg: Option<Reg>) {
        self.bytes(&[reg.map_or(0, |r| r.index() + 1)]);
    }

    /// Every field of `u`, in declaration order, integers little-endian.
    fn uop(&mut self, u: &Uop) {
        let kind = UopKind::all().iter().position(|&k| k == u.kind).unwrap() as u8;
        self.bytes(&u.pc.to_le_bytes());
        self.bytes(&[kind]);
        self.reg(u.dst);
        self.reg(u.src1);
        self.reg(u.src2);
        match u.addr {
            Some(addr) => {
                self.bytes(&[1]);
                self.bytes(&addr.to_le_bytes());
            }
            None => self.bytes(&[0]),
        }
        self.bytes(&[u.size, u8::from(u.taken)]);
        self.bytes(&u.target.to_le_bytes());
    }
}

#[test]
fn every_familys_seed_zero_stream_is_pinned() {
    let pinned = [
        (WorkloadFamily::SpecInt, 0x677a_805f_7abc_e861),
        (WorkloadFamily::SpecFp, 0xee54_c4f3_c1ac_a998),
        (WorkloadFamily::Kernel, 0x755e_772d_8000_41ff),
        (WorkloadFamily::Multimedia, 0x8b93_efc8_158b_3c92),
        (WorkloadFamily::Office, 0xd1ce_bbaa_6fc8_83e3),
        (WorkloadFamily::Server, 0xe7f3_750d_88c1_e02a),
        (WorkloadFamily::Workstation, 0x245f_d7fe_2c98_8a24),
    ];
    let mut got = Vec::new();
    for (family, _) in pinned {
        let trace = TraceSpec::new(family, 0, LEN).build().unwrap();
        assert_eq!(trace.len(), LEN);
        let mut h = Fnv::new();
        for u in trace.uops() {
            h.uop(&u);
        }
        got.push((family, h.0));
    }
    assert_eq!(got, pinned, "a generator's output changed");
}
