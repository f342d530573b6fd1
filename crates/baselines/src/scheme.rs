//! A unified driver over every implemented protection scheme, used by the
//! experiment harnesses (Tables 1/3/4, Figures 1/2, §6.4, §6.5).
//!
//! Every scheme compiles through the stages SoftBound's
//! [`Engine::compile`] runs (§6.1): [`front_half`], the scheme's pass,
//! then [`Program::build`] at the scheme's post-instrument level. So
//! every scheme yields a [`Program`], and every run is served on its
//! pre-decoded lane ([`Machine::run_predecoded`]): SoftBound's on an
//! [`Engine`] instance, the baselines' on a machine with their runtime
//! installed. The tree-walk interpreter stays the reference the
//! differential suites hold these runs to.
//!
//! [`Machine::run_predecoded`]: sb_vm::Machine::run_predecoded

use crate::fatptr::FatPtrRuntime;
use crate::mscc::MsccRuntime;
use crate::object_table::{instrument_object_scheme, ObjectScheme, ObjectTableRuntime};
use crate::valgrind::ValgrindRuntime;
use sb_cir::PtrLayout;
use sb_ir::{Module, OptLevel};
use sb_vm::{MachineConfig, NoRuntime, RunResult, RuntimeHooks};
use softbound::{
    front_half, instrument, instrument_flavored, Engine, Flavor, Program, SoftBoundConfig,
    SoftBoundError,
};

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

    /// The front half and this scheme's pass: the module, named `name`,
    /// that the post-instrument optimizer receives. Fat pointers compile
    /// at the fat (24-byte) pointer layout, every other scheme at the
    /// standard one. Modules instrumented separately may be linked
    /// ([`sb_ir::link()`]) before [`Scheme::build`] finishes them; their
    /// names must differ, since a pass names each module's globals
    /// constructor after it.
    ///
    /// # Errors
    ///
    /// Frontend errors ([`SoftBoundError::Compile`]).
    pub fn instrument(&self, src: &str, name: &str) -> Result<Module, SoftBoundError> {
        let layout = match self {
            Scheme::FatPointer => PtrLayout::Fat,
            _ => PtrLayout::Thin,
        };
        let module = front_half(src, layout, name)?;
        let pointer_based =
            |flavor| instrument_flavored(&module, &SoftBoundConfig::default(), flavor);
        Ok(match self {
            Scheme::Uninstrumented => module,
            Scheme::SoftBound(cfg) => instrument(&module, cfg),
            Scheme::JonesKelly => instrument_object_scheme(&module, ObjectScheme::JonesKelly),
            // Valgrind intercepts every access, as Mudflap's pass checks
            // every dereference.
            Scheme::Mudflap | Scheme::Valgrind => {
                instrument_object_scheme(&module, ObjectScheme::Mudflap)
            }
            Scheme::FatPointer => pointer_based(Flavor::Fat),
            Scheme::Mscc => pointer_based(Flavor::Mscc),
        })
    }

    /// Finishes a module [`Scheme::instrument`] produced into a
    /// [`Program`]: the post-instrument optimizer at this scheme's level
    /// (SoftBound's is its policy's, an uninstrumented module gets
    /// none), the verifier and the exec lowering.
    ///
    /// # Errors
    ///
    /// Verifier failures ([`SoftBoundError::Verify`]).
    pub fn build(&self, module: Module) -> Result<Program, SoftBoundError> {
        let post = match self {
            Scheme::Uninstrumented => None,
            Scheme::SoftBound(cfg) => Some(cfg.post_instrument_level()),
            _ => Some(OptLevel::PostInstrument),
        };
        Program::build(module, post)
    }

    /// Compiles a CIR-C source for this scheme: [`Scheme::instrument`]
    /// into a module named `fat` for fat pointers and `program`
    /// otherwise, then [`Scheme::build`]. A SoftBound program is the one
    /// [`Engine::compile`] builds for the same configuration.
    ///
    /// # Errors
    ///
    /// Frontend errors ([`SoftBoundError::Compile`]) or instrumentation
    /// bugs ([`SoftBoundError::Verify`]).
    pub fn compile(&self, src: &str) -> Result<Program, SoftBoundError> {
        let name = match self {
            Scheme::FatPointer => "fat",
            _ => "program",
        };
        self.build(self.instrument(src, name)?)
    }

    /// Compile + run in one call.
    ///
    /// # Errors
    ///
    /// Pipeline errors from [`Scheme::compile`].
    pub fn run(&self, src: &str, entry: &str, args: &[i64]) -> Result<RunResult, SoftBoundError> {
        Ok(self.run_program(&self.compile(src)?, entry, args))
    }

    /// Runs a program this scheme compiled on the pre-decoded lane, on a
    /// fresh machine with the scheme's runtime installed: SoftBound's
    /// through [`Engine::instantiate`], which picks its facility. The
    /// runtime decides the heap's redzones ([`RuntimeHooks::REDZONE`]).
    pub fn run_program(&self, program: &Program, entry: &str, args: &[i64]) -> RunResult {
        fn served<H: RuntimeHooks>(
            program: &Program,
            hooks: H,
            entry: &str,
            args: &[i64],
        ) -> RunResult {
            program
                .machine(MachineConfig::default(), hooks)
                .run_predecoded(entry, args)
        }
        match self {
            Scheme::Uninstrumented => served(program, NoRuntime, entry, args),
            Scheme::SoftBound(cfg) => Engine::new()
                .softbound_config(cfg.clone())
                .instantiate(program)
                .run(entry, args),
            Scheme::JonesKelly => served(
                program,
                ObjectTableRuntime::new(ObjectScheme::JonesKelly),
                entry,
                args,
            ),
            Scheme::Mudflap => served(
                program,
                ObjectTableRuntime::new(ObjectScheme::Mudflap),
                entry,
                args,
            ),
            Scheme::Valgrind => served(program, ValgrindRuntime::new(), entry, args),
            Scheme::FatPointer => served(program, FatPtrRuntime::new(), entry, args),
            Scheme::Mscc => served(program, MsccRuntime::new(), entry, args),
        }
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
    fn softbound_scheme_compiles_what_its_engine_compiles() {
        for cfg in [
            SoftBoundConfig::full_shadow(),
            SoftBoundConfig::store_only_hash(),
            SoftBoundConfig::hardened(),
        ] {
            let scheme = Scheme::SoftBound(cfg.clone())
                .compile(SAFE)
                .expect("compiles");
            let engine = Engine::new()
                .softbound_config(cfg)
                .compile(SAFE)
                .expect("compiles");
            assert!(scheme.module() == engine.module());
            assert_eq!(scheme.stats(), engine.stats());
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
