//! A unified driver over every implemented protection scheme, used by the
//! experiment harnesses (Tables 1/3/4, Figure 2, §6.5).

use crate::fatptr::{self, FatPtrRuntime};
use crate::mscc::{instrument_mscc, MsccRuntime};
use crate::object_table::{instrument_object_scheme, ObjectScheme, ObjectTableRuntime};
use crate::valgrind::ValgrindRuntime;
use sb_ir::Module;
use sb_vm::{Machine, MachineConfig, NoRuntime, RunResult, RuntimeHooks};
use softbound::{Engine, Facility, SoftBoundConfig, SoftBoundError, SoftBoundRuntime};

/// Every protection scheme the reproduction implements.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// No protection (the overhead baseline).
    Uninstrumented,
    /// SoftBound in any configuration.
    SoftBound(SoftBoundConfig),
    /// Jones-Kelly object table (arithmetic + dereference checks).
    JonesKelly,
    /// GCC Mudflap-style object database (dereference checks).
    Mudflap,
    /// Valgrind/Memcheck-style heap addressability + redzones.
    Valgrind,
    /// SafeC/CCured-SEQ-style inline fat pointers.
    FatPointer,
    /// MSCC-style disjoint metadata without wild-cast support.
    Mscc,
}

impl Scheme {
    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Scheme::Uninstrumented => "uninstrumented".into(),
            Scheme::SoftBound(cfg) => format!("SoftBound {}", cfg.label()),
            Scheme::JonesKelly => "Jones-Kelly (object table)".into(),
            Scheme::Mudflap => "Mudflap (object db)".into(),
            Scheme::Valgrind => "Valgrind (memcheck-like)".into(),
            Scheme::FatPointer => "Fat pointers (SafeC/CCured-SEQ)".into(),
            Scheme::Mscc => "MSCC".into(),
        }
    }

    /// Compiles and instruments a CIR-C source for this scheme (the fat
    /// baseline uses the fat memory layout). The SoftBound scheme goes
    /// through [`Engine::compile`]; the baselines share its error
    /// surface, reporting verifier failures as
    /// [`SoftBoundError::Verify`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Frontend errors ([`SoftBoundError::Compile`]) or instrumentation
    /// bugs ([`SoftBoundError::Verify`]).
    pub fn compile(&self, src: &str) -> Result<Module, SoftBoundError> {
        let module = match self {
            Scheme::FatPointer => return fatptr::compile_fat_protected(src),
            Scheme::SoftBound(cfg) => {
                let engine = Engine::new().softbound_config(cfg.clone());
                return Ok(engine.compile(src)?.into_parts().0);
            }
            _ => {
                let prog = sb_cir::compile(src)?;
                let mut m = sb_ir::lower(&prog, "program");
                sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
                m
            }
        };
        let mut m = match self {
            Scheme::Uninstrumented => module,
            Scheme::JonesKelly => instrument_object_scheme(&module, ObjectScheme::JonesKelly),
            // Valgrind intercepts every access, as Mudflap's pass checks
            // every dereference.
            Scheme::Mudflap | Scheme::Valgrind => {
                instrument_object_scheme(&module, ObjectScheme::Mudflap)
            }
            Scheme::Mscc => instrument_mscc(&module),
            Scheme::SoftBound(_) | Scheme::FatPointer => unreachable!("handled above"),
        };
        if !matches!(self, Scheme::Uninstrumented) {
            sb_ir::optimize(&mut m, sb_ir::OptLevel::PostInstrument);
        }
        sb_ir::verify(&m)?;
        Ok(m)
    }

    /// Runs `module` through [`Machine::run`] on a machine
    /// monomorphized for this scheme's concrete runtime — the
    /// statically-dispatched path every harness entry point funnels
    /// into, the same for SoftBound as for every baseline. The runtime
    /// decides the heap's redzones ([`RuntimeHooks::REDZONE`]).
    fn dispatch(&self, module: &Module, entry: &str, args: &[i64]) -> RunResult {
        fn go<H: RuntimeHooks>(module: &Module, hooks: H, entry: &str, args: &[i64]) -> RunResult {
            Machine::new(module, MachineConfig::default(), hooks).run(entry, args)
        }
        match self {
            Scheme::Uninstrumented => go(module, NoRuntime, entry, args),
            Scheme::SoftBound(sb) => match sb.facility {
                Facility::ShadowShared => go(module, SoftBoundRuntime::new_paged(sb), entry, args),
                Facility::HashTable => go(module, SoftBoundRuntime::new_hash(sb), entry, args),
            },
            Scheme::JonesKelly => go(
                module,
                ObjectTableRuntime::new(ObjectScheme::JonesKelly),
                entry,
                args,
            ),
            Scheme::Mudflap => go(
                module,
                ObjectTableRuntime::new(ObjectScheme::Mudflap),
                entry,
                args,
            ),
            Scheme::Valgrind => go(module, ValgrindRuntime::new(), entry, args),
            Scheme::FatPointer => go(module, FatPtrRuntime::new(), entry, args),
            Scheme::Mscc => go(module, MsccRuntime::new(), entry, args),
        }
    }

    /// Compile + run in one call.
    ///
    /// # Errors
    ///
    /// Pipeline errors from [`Scheme::compile`].
    pub fn run(&self, src: &str, entry: &str, args: &[i64]) -> Result<RunResult, SoftBoundError> {
        let module = self.compile(src)?;
        Ok(self.dispatch(&module, entry, args))
    }

    /// Runs a precompiled module (must have been produced by
    /// [`Scheme::compile`] on the same scheme).
    pub fn run_module(&self, module: &Module, entry: &str, args: &[i64]) -> RunResult {
        self.dispatch(module, entry, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAFE: &str = r#"
        int main() {
            char* p = (char*)malloc(16);
            strcpy(p, "hello");
            long n = strlen(p);
            free(p);
            return n == 5;
        }
    "#;

    /// `strncmp` over an unterminated block that holds exactly `n` bytes:
    /// the compare reads no byte past it.
    const EXACT_STRNCMP: &str = r#"
        int main() {
            char* p = (char*)malloc(4);
            for (int i = 0; i < 4; i++) p[i] = 'a' + i;
            return strncmp(p, "abcd", 4) == 0;
        }
    "#;

    const HEAP_OVERFLOW: &str = r#"
        int main() {
            char* p = (char*)malloc(8);
            p[8] = 'x';
            return 0;
        }
    "#;

    /// A 4-byte store at 2^64 - 2 through a pointer carrying a 16-byte
    /// heap object's bounds: `ptr + 4` wraps past zero.
    const WRAPAROUND_STORE: &str = r#"
        int main() {
            char* p = (char*)malloc(16);
            long k = -(long)p - 2;   // p + k == 0xffff_ffff_ffff_fffe
            int* q = (int*)(p + k);
            *q = 1;
            return 0;
        }
    "#;

    #[test]
    fn every_scheme_runs_safe_code() {
        for scheme in [
            Scheme::Uninstrumented,
            Scheme::SoftBound(SoftBoundConfig::full_shadow()),
            Scheme::SoftBound(SoftBoundConfig::store_only_hash()),
            Scheme::JonesKelly,
            Scheme::Mudflap,
            Scheme::Valgrind,
            Scheme::FatPointer,
            Scheme::Mscc,
        ] {
            for src in [SAFE, EXACT_STRNCMP] {
                let r = scheme.run(src, "main", &[]).expect("compiles");
                assert_eq!(r.ret(), Some(1), "{}: {:?}", scheme.label(), r.outcome);
            }
        }
    }

    #[test]
    fn every_checker_catches_heap_overflow() {
        for scheme in [
            Scheme::SoftBound(SoftBoundConfig::full_shadow()),
            Scheme::JonesKelly,
            Scheme::Mudflap,
            Scheme::Valgrind,
            Scheme::FatPointer,
            Scheme::Mscc,
        ] {
            let r = scheme.run(HEAP_OVERFLOW, "main", &[]).expect("compiles");
            assert!(
                r.outcome.is_spatial_violation(),
                "{} should detect the heap overflow: {:?}",
                scheme.label(),
                r.outcome
            );
        }
        // The pointer-based schemes bound the access by the pointer's
        // metadata, wraparound included. (Valgrind treats addresses
        // outside the heap as addressable.)
        for scheme in [
            Scheme::SoftBound(SoftBoundConfig::full_shadow()),
            Scheme::FatPointer,
            Scheme::Mscc,
        ] {
            let r = scheme.run(WRAPAROUND_STORE, "main", &[]).expect("compiles");
            assert!(
                r.outcome.is_spatial_violation(),
                "{} should detect the wrapping store: {:?}",
                scheme.label(),
                r.outcome
            );
        }
    }

    #[test]
    fn uninstrumented_is_cheapest() {
        let base = Scheme::Uninstrumented.run(SAFE, "main", &[]).expect("ok");
        for scheme in [
            Scheme::SoftBound(SoftBoundConfig::full_shadow()),
            Scheme::JonesKelly,
            Scheme::Valgrind,
            Scheme::Mscc,
        ] {
            let r = scheme.run(SAFE, "main", &[]).expect("ok");
            assert!(
                r.stats.cycles >= base.stats.cycles,
                "{} cheaper than baseline?",
                scheme.label()
            );
        }
    }
}
