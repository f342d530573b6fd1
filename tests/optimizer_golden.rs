//! Byte-identity pin for the optimizer's output over the benchmark
//! corpus.
//!
//! Every one of the 50 corpus sources the repository benchmark compiles
//! (15 kernels, 11 libc kernels, 2 daemons, 18 attacks, 4 BugBench
//! programs) goes through five pipelines that end in the post-instrument
//! optimizer:
//!
//! * `strict`: `Engine::new()` (SoftBound, full checking, RCE on);
//! * `store`: `Engine::new().check_mode(StoreOnly)`;
//! * `hardened`: `Engine::new().policy(Hardened)`, which runs
//!   `PostInstrumentAllChecks`;
//! * `fat`: `Scheme::FatPointer.compile`;
//! * `mscc`: `Scheme::Mscc`'s pipeline, its module named `mscc`.
//!
//! All five run the one pointer-based pass, `softbound::transform`: the
//! first three in its SoftBound flavor, `fat` and `mscc` in the other two.
//!
//! Each row pins an FNV-1a-64 digest of the printed module, the
//! optimizer's `PassStats`, and, for `Engine` programs, the exec
//! lowering's fused check count. The optimizer caps every function at
//! four rounds, so how many rounds a pass reports a change in is
//! observable in the output; a rewrite of any pass must reproduce the
//! table exactly. On a mismatch the test prints the whole table it
//! computed, for review and re-pinning of a deliberate change.

use sb_baselines::Scheme;
use sb_ir::{Module, OptLevel, PassStats};
use softbound::{CheckMode, Engine, SoftBoundConfig, SoftBoundError, ViolationPolicy};

/// One corpus source, labelled as the repository benchmark labels it.
struct Source {
    name: String,
    text: &'static str,
}

fn corpus() -> Vec<Source> {
    let mut v: Vec<Source> = sb_workloads::all_benchmarks()
        .into_iter()
        .map(|w| Source {
            name: w.name.to_string(),
            text: w.source,
        })
        .collect();
    v.extend(
        sb_workloads::all_libc_kernels()
            .into_iter()
            .map(|k| Source {
                name: format!("libc.{}", k.name),
                text: k.source,
            }),
    );
    v.extend(sb_workloads::daemons::all().into_iter().map(|d| Source {
        name: format!("daemon.{}", d.name),
        text: d.source,
    }));
    v.extend(sb_workloads::attacks::all().into_iter().map(|a| Source {
        name: format!("attack.{:02}", a.id),
        text: a.source,
    }));
    v.extend(sb_workloads::bugbench::all().into_iter().map(|b| Source {
        name: format!("bugbench.{}", b.name),
        text: b.source,
    }));
    v
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden row: `name pipeline digest insts_removed checks_eliminated
/// fused` (`-` where a pipeline has no exec lowering).
fn row(name: &str, pipeline: &str, m: &Module, stats: PassStats, fused: Option<u64>) -> String {
    let fused = fused.map_or_else(|| "-".to_string(), |n| n.to_string());
    format!(
        "{name} {pipeline} {:016x} {} {} {fused}",
        fnv1a64(m.to_string().as_bytes()),
        stats.insts_removed,
        stats.checks_eliminated,
    )
}

fn engine_row(name: &str, pipeline: &str, engine: &Engine, src: &str) -> String {
    let program = engine
        .compile(src)
        .unwrap_or_else(|e| panic!("{name} ({pipeline}): {e}"));
    row(
        name,
        pipeline,
        program.module(),
        program.stats(),
        Some(program.exec().fused_checks),
    )
}

fn fat_row(name: &str, src: &str) -> String {
    let program = Scheme::FatPointer
        .compile(src)
        .unwrap_or_else(|e| panic!("{name} (fat): {e}"));
    row(name, "fat", program.module(), program.stats(), None)
}

/// `Scheme::Mscc.compile` with the module named `mscc`, as the pinned
/// rows print it.
fn mscc_row(name: &str, src: &str) -> String {
    let fail = |e: SoftBoundError| -> ! { panic!("{name} (mscc): {e}") };
    let m = Scheme::Mscc
        .instrument(src, "mscc")
        .unwrap_or_else(|e| fail(e));
    let program = Scheme::Mscc.build(m).unwrap_or_else(|e| fail(e));
    row(name, "mscc", program.module(), program.stats(), None)
}

fn table() -> Vec<String> {
    let strict = Engine::new();
    let store = Engine::new().check_mode(CheckMode::StoreOnly);
    let hardened = Engine::new().policy(ViolationPolicy::Hardened);
    let mut rows = Vec::new();
    for s in corpus() {
        rows.push(engine_row(&s.name, "strict", &strict, s.text));
        rows.push(engine_row(&s.name, "store", &store, s.text));
        rows.push(engine_row(&s.name, "hardened", &hardened, s.text));
        rows.push(fat_row(&s.name, s.text));
        rows.push(mscc_row(&s.name, s.text));
    }
    rows
}

#[test]
fn optimizer_output_matches_the_golden_table() {
    let actual = table();
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    let diffs: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != *e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        diffs.is_empty() && actual.len() == expected.len(),
        "{} of {} rows differ ({} expected):\n{}\n\nfull table:\n{}",
        diffs.len(),
        actual.len(),
        expected.len(),
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// A source that reaches paths no corpus source reaches, several of
/// which the three flavors of the pointer-based pass treat differently:
/// `setbound`, the wrapped `va_arg_*` decode checks, an indirect call
/// through a function-pointer global, a `memcpy` of a pointer-holding
/// struct, a field GEP into `char tag[8]`, pointer-valued global
/// initializers, a pointer return and `free`. It forges no pointer from
/// an integer. It stays out of [`corpus`], whose totals the benchmark
/// reports.
const FLAVOR_PROBE: &str = r#"
struct rec { char tag[8]; long* data; };
long counter = 3;
long* gp = &counter;
int twice(int x) { return 2 * x; }
int (*op)(int) = twice;
long sum_va(int n, ...) {
    long s = va_arg_long(0);
    long* p = (long*)va_arg_ptr(1);
    return p == gp ? s : 0;
}
long* pick(struct rec* r) { return r->data; }
int main() {
    struct rec a;
    struct rec b;
    long* buf = (long*)malloc(4 * sizeof(long));
    buf[0] = 5;
    long* w = (long*)setbound(buf, 2 * sizeof(long));
    w[1] = 6;
    a.data = w;
    a.tag[0] = 'x';
    memcpy(&b, &a, sizeof(struct rec));
    char* t = b.tag;
    t[1] = 'y';
    long r = sum_va(2, 7, gp) + *pick(&b) + op(2);
    free(buf);
    return (int)r;
}
"#;

#[test]
fn flavor_dependent_paths_match_the_pinned_rows() {
    let name = "flavor_probe";
    let actual = [
        engine_row(name, "strict", &Engine::new(), FLAVOR_PROBE),
        engine_row(
            name,
            "store",
            &Engine::new().check_mode(CheckMode::StoreOnly),
            FLAVOR_PROBE,
        ),
        engine_row(
            name,
            "hardened",
            &Engine::new().policy(ViolationPolicy::Hardened),
            FLAVOR_PROBE,
        ),
        fat_row(name, FLAVOR_PROBE),
        mscc_row(name, FLAVOR_PROBE),
    ];
    let expected: Vec<&str> = FLAVOR_PROBE_GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(actual.as_slice(), expected.as_slice());
}

/// The probe's run under the three pointer-based schemes: outcome,
/// instructions, cycles, runtime calls and checks, one row each.
#[test]
fn flavor_probe_runs_match_the_pinned_counts() {
    let actual: Vec<String> = [
        ("strict", Scheme::SoftBound(SoftBoundConfig::default())),
        ("fat", Scheme::FatPointer),
        ("mscc", Scheme::Mscc),
    ]
    .iter()
    .map(|(label, scheme)| {
        let r = scheme.run(FLAVOR_PROBE, "main", &[]).expect("compiles");
        let s = &r.stats;
        format!(
            "{label} {:?} {} {} {} {}",
            r.outcome, s.insts, s.cycles, s.rt_calls, s.checks
        )
    })
    .collect();
    assert_eq!(actual, FLAVOR_PROBE_RUNS);
}

const FLAVOR_PROBE_RUNS: [&str; 3] = [
    "strict Finished { ret: 16 } 66 243 18 13",
    "fat Finished { ret: 16 } 82 191 10 12",
    "mscc Finished { ret: 16 } 61 303 17 12",
];

const FLAVOR_PROBE_GOLDEN: &str = "
flavor_probe strict e039a1e09020392a 12 0 6
flavor_probe store 7e33c3f4044a8880 13 0 5
flavor_probe hardened e039a1e09020392a 12 0 6
flavor_probe fat ab3d24b99b76f27d 12 0 -
flavor_probe mscc a590858181618be1 16 0 -
";

/// The `strict` corpus totals the repository benchmark reports as its
/// deterministic compile counts.
#[test]
fn strict_corpus_totals_match_the_benchmark_counts() {
    let engine = Engine::new();
    let mut totals = [0u64; 6];
    for s in corpus() {
        let prog = sb_cir::compile(s.text).expect("compiles");
        let mut m = sb_ir::lower(&prog, "program");
        let lowered = m.inst_count() as u64;
        sb_ir::optimize(&mut m, OptLevel::PreInstrument);
        let instrumented = softbound::instrument(&m, engine.config()).inst_count() as u64;
        let program = engine.compile(s.text).expect("compiles");
        let stats = program.stats();
        let counts = [
            lowered,
            instrumented,
            program.module().inst_count() as u64,
            stats.insts_removed as u64,
            stats.checks_eliminated as u64,
            program.exec().fused_checks,
        ];
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    // lowered, instrumented, post-opt, removed, checks eliminated, fused
    assert_eq!(totals, [5_596, 7_350, 6_253, 1_097, 22, 546]);
}

const GOLDEN: &str = "
go strict 73388e1a9e47b579 24 0 12
go store 9a211ee4fe84aae6 24 0 6
go hardened 73388e1a9e47b579 24 0 12
go fat a8a9a18a157657db 24 0 -
go mscc 2da7c4e3de33128a 24 0 -
lbm strict 0a9086fe713e3433 52 0 26
lbm store b4c870b10d748104 52 0 9
lbm hardened 0a9086fe713e3433 52 0 26
lbm fat ee9990b9c30a3c21 52 0 -
lbm mscc 9d98e260761928cf 52 0 -
hmmer strict 6b39791ce483b5c0 52 0 14
hmmer store 902cd145e5b1ac0b 52 0 6
hmmer hardened 6b39791ce483b5c0 52 0 14
hmmer fat 338d004a3cc01690 52 0 -
hmmer mscc d33246de3a01d5a6 52 0 -
compress strict 5c533976f122d441 22 0 12
compress store 99d7f9f968034053 22 0 6
compress hardened 5c533976f122d441 22 0 12
compress fat b096f34af92894f7 22 0 -
compress mscc c264c27db82f109d 22 0 -
ijpeg strict be0b87b2596d4fee 20 0 10
ijpeg store 4ef3dfd349ed6cb1 20 0 5
ijpeg hardened be0b87b2596d4fee 20 0 10
ijpeg fat a2b0acc91d6b4676 20 0 -
ijpeg mscc 2a53ec388345b76a 20 0 -
bh strict e1daaba053207c36 62 0 35
bh store 99f90c0cd75eeeff 87 0 13
bh hardened e1daaba053207c36 62 0 35
bh fat d15c5331a0808e4d 62 0 -
bh mscc e7e50ba530cf7258 100 0 -
tsp strict 1b14ef7801323a24 24 0 11
tsp store fc2c43a581d715ac 30 0 6
tsp hardened 1b14ef7801323a24 24 0 11
tsp fat be28664419525750 24 0 -
tsp mscc 335606333c707e8c 24 0 -
libquantum strict 38911998a9b8a9ca 63 0 35
libquantum store cc2be73898ce3a3b 89 0 11
libquantum hardened 38911998a9b8a9ca 63 0 35
libquantum fat 138e841f66d4cbb6 63 0 -
libquantum mscc cef04725e791182d 82 0 -
perimeter strict b2bbce97a8424300 97 0 46
perimeter store 52ba3a6ac6ce1258 135 0 14
perimeter hardened b2bbce97a8424300 97 0 46
perimeter fat 12e9de53a474f524 97 0 -
perimeter mscc b226d7e0614e4d57 138 0 -
health strict f902e3734a7cdfc8 64 1 40
health store bb6c5b3c2f626b6b 89 0 26
health hardened b50608dd57db587d 63 0 41
health fat bf6b43bf23e8881b 64 1 -
health mscc 19a38dbf42b9cb31 111 1 -
bisort strict 7ed8c7af99649086 23 0 17
bisort store 4addfde59ab0fc8a 36 0 10
bisort hardened 7ed8c7af99649086 23 0 17
bisort fat 19d6db17de6085f3 23 0 -
bisort mscc 197f3019892c51f1 46 0 -
mst strict 1e52d5a7570d52a8 46 2 23
mst store 2fd830f53219a7dc 59 0 16
mst hardened f7d1a7bb680edcd3 44 0 24
mst fat 9ca5b5466cdff9b1 46 2 -
mst mscc dd707369527ea773 62 2 -
li strict f9771c3fc8fc67bc 31 3 20
li store a59ffc58bede33a6 40 0 13
li hardened 6ae16522484d07fa 28 0 22
li fat 7d44ed1d76f27c43 31 3 -
li mscc 78eaa0cae31cd8ce 53 3 -
em3d strict 33e61d262eddccc3 41 0 16
em3d store 8fc8ca9e3fa7689b 53 0 11
em3d hardened 33e61d262eddccc3 41 0 16
em3d fat 111e28014275dad7 41 0 -
em3d mscc 5d5dfb2082de2f19 50 0 -
treeadd strict 61b52f69e2e07ac7 8 0 6
treeadd store 671ee4aefc80f4a5 11 0 5
treeadd hardened 61b52f69e2e07ac7 8 0 6
treeadd fat a885429788fa8051 8 0 -
treeadd mscc a99889c9f88c46ab 16 0 -
libc.memcpy strict c60845c5c4f008b4 4 0 2
libc.memcpy store bc846e7be1501675 4 0 1
libc.memcpy hardened c60845c5c4f008b4 4 0 2
libc.memcpy fat bcc93baad4681f14 4 0 -
libc.memcpy mscc 9dd9cabf61380500 4 0 -
libc.memmove strict bc53fc80ccfc0089 8 0 4
libc.memmove store 6582b5eb9999655f 8 0 2
libc.memmove hardened bc53fc80ccfc0089 8 0 4
libc.memmove fat d144862942df495b 8 0 -
libc.memmove mscc f82c2413575ef8c3 8 0 -
libc.memset strict d98f79f1c2c54270 2 0 1
libc.memset store 3b1f24d69e5a2eb0 4 0 0
libc.memset hardened d98f79f1c2c54270 2 0 1
libc.memset fat 204cbef3ce9ff7a6 2 0 -
libc.memset mscc 4d6605e6ea8e0d42 2 0 -
libc.strcpy strict 2efba5ec50fcffdd 4 0 2
libc.strcpy store 2efba5ec50fcffdd 4 0 2
libc.strcpy hardened 2efba5ec50fcffdd 4 0 2
libc.strcpy fat 663de83f55e2a84b 4 0 -
libc.strcpy mscc f24817336b44d5e7 4 0 -
libc.strncpy strict 198df449d3a88b6b 6 0 3
libc.strncpy store b7ea129a41bf9fea 6 0 2
libc.strncpy hardened 198df449d3a88b6b 6 0 3
libc.strncpy fat 54d56a1774feb571 6 0 -
libc.strncpy mscc 057dd4d83793fc6d 6 0 -
libc.strcmp strict 9c6ab2fd76c3a073 8 0 4
libc.strcmp store 9c6ab2fd76c3a073 8 0 4
libc.strcmp hardened 9c6ab2fd76c3a073 8 0 4
libc.strcmp fat e00a5df007d1c861 8 0 -
libc.strcmp mscc 17cf0599dfcf2521 8 0 -
libc.strtok strict f0cf321ec6b6b2b4 4 0 2
libc.strtok store f6bf2190a9bc26aa 4 0 1
libc.strtok hardened f0cf321ec6b6b2b4 4 0 2
libc.strtok fat c562da577be413d2 4 0 -
libc.strtok mscc 42fd2f5d247f9c1c 4 0 -
libc.sprintf strict 9fa5bdfcdea74c13 10 0 5
libc.sprintf store 842daa58708c77b1 10 0 4
libc.sprintf hardened 9fa5bdfcdea74c13 10 0 5
libc.sprintf fat cd0cafbd761e39a9 10 0 -
libc.sprintf mscc 18aefbad7aad1139 10 0 -
libc.strcpy_off_by_one strict d06426c745d08e72 10 0 5
libc.strcpy_off_by_one store 5d049277933efb06 10 0 3
libc.strcpy_off_by_one hardened d06426c745d08e72 10 0 5
libc.strcpy_off_by_one fat 03642cf1012f2d0a 10 0 -
libc.strcpy_off_by_one mscc d1649cabc4cc1c9a 10 0 -
libc.negindex strict 00e86fa91c9c9312 4 0 2
libc.negindex store 176be22cfc16ef6e 4 0 1
libc.negindex hardened 00e86fa91c9c9312 4 0 2
libc.negindex fat bf7b8fd1169d14e8 4 0 -
libc.negindex mscc a6b807e6677c4bb8 4 0 -
libc.header strict e3cd06233f342afd 4 0 2
libc.header store e81604ed069f9fe1 4 0 1
libc.header hardened e3cd06233f342afd 4 0 2
libc.header fat 8e4444df02c47d29 4 0 -
libc.header mscc e53cc30d12cca1f1 4 0 -
daemon.tinyftp strict 12d647ee42f8cf48 174 2 77
daemon.tinyftp store 146e7fd5c7ada516 203 0 53
daemon.tinyftp hardened 7291102decb7f3f0 172 0 77
daemon.tinyftp fat f40d006c1fa50c7d 174 2 -
daemon.tinyftp mscc edf000d04efabe72 228 2 -
daemon.nhttpd strict d726d3803ea561ef 122 1 55
daemon.nhttpd store ce4ced746b76a128 124 0 26
daemon.nhttpd hardened 124d902636539988 121 0 56
daemon.nhttpd fat 82d98e5aa274e41b 122 1 -
daemon.nhttpd mscc 58d9b9fba1c907b5 129 1 -
attack.01 strict e715d7f5da1d92b4 3 0 1
attack.01 store e715d7f5da1d92b4 3 0 1
attack.01 hardened e715d7f5da1d92b4 3 0 1
attack.01 fat 036fa2a5d8976dee 3 0 -
attack.01 mscc a8512f68b1c8965e 3 0 -
attack.02 strict d1b38e0aba568f24 9 0 3
attack.02 store d1b38e0aba568f24 9 0 3
attack.02 hardened d1b38e0aba568f24 9 0 3
attack.02 fat a9fba67004f49272 9 0 -
attack.02 mscc 9a60484798701966 9 0 -
attack.03 strict 3fd18c472892d839 5 1 2
attack.03 store 3fd18c472892d839 4 0 2
attack.03 hardened de501556429afacb 4 0 2
attack.03 fat 2eb4822cb377de16 5 1 -
attack.03 mscc ebc6dffdf75b7135 5 1 -
attack.04 strict 0434cd91b10a938d 5 1 2
attack.04 store 0434cd91b10a938d 4 0 2
attack.04 hardened c7cca9ea5412f014 4 0 2
attack.04 fat 8abe36bddc269af1 5 1 -
attack.04 mscc dac1420197c02b1c 5 1 -
attack.05 strict 04e4fd92f3d0e593 2 0 1
attack.05 store 04e4fd92f3d0e593 2 0 1
attack.05 hardened 04e4fd92f3d0e593 2 0 1
attack.05 fat df7659b288b59503 2 0 -
attack.05 mscc 49df24cd956b69bf 2 0 -
attack.06 strict c1bf80ae18a56f21 5 1 3
attack.06 store c1bf80ae18a56f21 4 0 3
attack.06 hardened e9d293a1c5da46d3 4 0 3
attack.06 fat 196673ead3a18303 5 1 -
attack.06 mscc e7a5dc1c41620169 5 1 -
attack.07 strict edf4df9432c22881 2 0 1
attack.07 store 01e6813ff0ef5dec 2 0 1
attack.07 hardened edf4df9432c22881 2 0 1
attack.07 fat 83cd29ec8733508b 2 0 -
attack.07 mscc bf924c8c743c7191 2 0 -
attack.08 strict 5f0d60c6df9086ec 2 0 1
attack.08 store 5f0d60c6df9086ec 2 0 1
attack.08 hardened 5f0d60c6df9086ec 2 0 1
attack.08 fat 8a4d4e4fa3852ae6 2 0 -
attack.08 mscc 70b76eb0a55b1c0d 2 0 -
attack.09 strict 31de85a4cc165524 5 1 3
attack.09 store 31de85a4cc165524 4 0 3
attack.09 hardened d06d4b5dd89d9295 4 0 3
attack.09 fat 705405d4faa21a60 5 1 -
attack.09 mscc c000e9c1d3ccaa9e 5 1 -
attack.10 strict 1ca5a4b8ca339965 8 1 5
attack.10 store 1ca5a4b8ca339965 7 0 5
attack.10 hardened 31963e0cb68a9348 7 0 5
attack.10 fat 3851dc155c4fbe57 8 1 -
attack.10 mscc 3efae32daba36c61 8 1 -
attack.11 strict f62be5128d499a72 7 2 4
attack.11 store f62be5128d499a72 5 0 4
attack.11 hardened 9ca4e8d8ac8c4aea 5 0 4
attack.11 fat 390edeab49e0013a 7 2 -
attack.11 mscc 268ce9c2c5aa2d9b 7 2 -
attack.12 strict db5b819d9ff30631 7 2 4
attack.12 store db5b819d9ff30631 5 0 4
attack.12 hardened 64dce217fc3f6cbe 5 0 4
attack.12 fat a479741ff671a7cb 7 2 -
attack.12 mscc c05bc6d262cce720 7 2 -
attack.13 strict 736167af6df00dce 3 1 3
attack.13 store 736167af6df00dce 2 0 3
attack.13 hardened ab35528b737cd864 2 0 3
attack.13 fat b39e31af12dae9a0 3 1 -
attack.13 mscc 238b1080e14cf188 3 1 -
attack.14 strict 8a840786c87e6aeb 7 2 5
attack.14 store 8a840786c87e6aeb 5 0 5
attack.14 hardened 478c145594399715 5 0 5
attack.14 fat 0aee82fd07ace061 7 2 -
attack.14 mscc 804f13aec2367adb 7 2 -
attack.15 strict c9f11d83cbe62343 6 0 3
attack.15 store 57d284d0f1b2f065 7 0 3
attack.15 hardened c9f11d83cbe62343 6 0 3
attack.15 fat 268c4f3abea1da78 6 0 -
attack.15 mscc 0a404d99ba3ea3b4 9 0 -
attack.16 strict be9cbc161d9ddced 8 0 5
attack.16 store 721642e6db61c72e 9 0 5
attack.16 hardened be9cbc161d9ddced 8 0 5
attack.16 fat bd6cba0dd05036f9 8 0 -
attack.16 mscc e232170f95e605b6 11 0 -
attack.17 strict 0ed000599d83e9c4 3 1 3
attack.17 store 538f7107810ea124 2 0 3
attack.17 hardened a7f0dc3747e6f66d 2 0 3
attack.17 fat 7e518cff29bbcac1 3 1 -
attack.17 mscc 4d525d3b580b10b1 3 1 -
attack.18 strict 8e88ff2ec04351cc 7 0 3
attack.18 store 138f2974661bc47e 8 0 3
attack.18 hardened 8e88ff2ec04351cc 7 0 3
attack.18 fat 196c3d4202df440e 7 0 -
attack.18 mscc 70144a59ff4c9440 10 0 -
bugbench.go strict e887a80aadaa026b 9 0 3
bugbench.go store c92042db3edf734b 10 0 2
bugbench.go hardened e887a80aadaa026b 9 0 3
bugbench.go fat fdcc22f3a9431895 9 0 -
bugbench.go mscc 2e5182d912df289b 12 0 -
bugbench.compress strict da89ed8746b8f0bc 2 0 2
bugbench.compress store e38421928a11e941 2 0 1
bugbench.compress hardened da89ed8746b8f0bc 2 0 2
bugbench.compress fat 98f1d4d81522602e 2 0 -
bugbench.compress mscc 20da42f93992923e 2 0 -
bugbench.polymorph strict 6636288913378fba 1 0 0
bugbench.polymorph store 6636288913378fba 1 0 0
bugbench.polymorph hardened 6636288913378fba 1 0 0
bugbench.polymorph fat 0bd08d3b0a5143e0 1 0 -
bugbench.polymorph mscc 3fdfadbbf880a8dc 1 0 -
bugbench.gzip strict 59e65a83860cd7c6 2 0 2
bugbench.gzip store 0f8c289528f89972 2 0 1
bugbench.gzip hardened 59e65a83860cd7c6 2 0 2
bugbench.gzip fat b61112a735c0d13c 2 0 -
bugbench.gzip mscc 6c6a8f1a371b94ac 2 0 -
";
