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
//! * `fat`: `sb_baselines::fatptr::compile_fat_protected`;
//! * `mscc`: `instrument_mscc` + `optimize_with_stats(PostInstrument)`.
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

use sb_ir::{Module, OptLevel, PassStats};
use softbound::{CheckMode, Engine, ViolationPolicy};

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

/// `compile_fat_protected`, replayed with `optimize_with_stats` so that
/// the row carries its statistics; the replay must match the one-call
/// pipeline's module.
fn fat_row(name: &str, src: &str) -> String {
    let mut m = sb_baselines::instrument_fat(
        &sb_baselines::compile_fat(src, "fat").unwrap_or_else(|e| panic!("{name} (fat): {e}")),
    );
    let stats = sb_ir::optimize_with_stats(&mut m, OptLevel::PostInstrument);
    sb_ir::verify(&m).unwrap_or_else(|e| panic!("{name} (fat): {e}"));
    let one_call = sb_baselines::compile_fat_protected(src).expect("compiles");
    assert!(m == one_call, "{name}: fat replay diverged");
    row(name, "fat", &m, stats, None)
}

fn mscc_row(name: &str, src: &str) -> String {
    let prog = sb_cir::compile(src).unwrap_or_else(|e| panic!("{name} (mscc): {e}"));
    let mut m = sb_ir::lower(&prog, "mscc");
    sb_ir::optimize(&mut m, OptLevel::PreInstrument);
    let mut m = sb_baselines::instrument_mscc(&m);
    let stats = sb_ir::optimize_with_stats(&mut m, OptLevel::PostInstrument);
    sb_ir::verify(&m).unwrap_or_else(|e| panic!("{name} (mscc): {e}"));
    row(name, "mscc", &m, stats, None)
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

/// A source that reaches the paths where the three flavors of the
/// pointer-based pass differ and that no corpus source reaches:
/// `setbound`, the variadic decode checks, an indirect call through a
/// function-pointer global, a `memcpy` of a pointer-holding struct, a
/// field GEP into `char tag[8]`, pointer-valued global initializers, a
/// pointer return and `free`. It forges no pointer from an integer. It
/// stays out of [`corpus`], whose totals the benchmark reports.
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

const FLAVOR_PROBE_GOLDEN: &str = "
flavor_probe strict 809af40cd8a1f47e 12 0 6
flavor_probe store 67793fd42e48d7f8 13 0 5
flavor_probe hardened 809af40cd8a1f47e 12 0 6
flavor_probe fat 08f546f28983b0e3 10 0 -
flavor_probe mscc e383e3d920606b77 16 0 -
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
    assert_eq!(totals, [5_596, 7_364, 6_267, 1_097, 22, 546]);
}

const GOLDEN: &str = "
go strict 73388e1a9e47b579 24 0 12
go store 9a211ee4fe84aae6 24 0 6
go hardened 73388e1a9e47b579 24 0 12
go fat 8a7458717a6e78c3 24 0 -
go mscc bfd8e8dee6188f5e 24 0 -
lbm strict 0a9086fe713e3433 52 0 26
lbm store b4c870b10d748104 52 0 9
lbm hardened 0a9086fe713e3433 52 0 26
lbm fat 06d967367ac381d1 52 0 -
lbm mscc 759c7b163b419a17 52 0 -
hmmer strict 6b39791ce483b5c0 52 0 14
hmmer store 902cd145e5b1ac0b 52 0 6
hmmer hardened 6b39791ce483b5c0 52 0 14
hmmer fat 5d21a0cc6716aa42 52 0 -
hmmer mscc c0329ba9d8c3414e 52 0 -
compress strict 5c533976f122d441 22 0 12
compress store 99d7f9f968034053 22 0 6
compress hardened 5c533976f122d441 22 0 12
compress fat ae8e1aca96bda92b 22 0 -
compress mscc c4b9825739ab2679 22 0 -
ijpeg strict be0b87b2596d4fee 20 0 10
ijpeg store 4ef3dfd349ed6cb1 20 0 5
ijpeg hardened be0b87b2596d4fee 20 0 10
ijpeg fat 86afdc0b05be3f64 20 0 -
ijpeg mscc 45892c672d4a9e2c 20 0 -
bh strict e1daaba053207c36 62 0 35
bh store 99f90c0cd75eeeff 87 0 13
bh hardened e1daaba053207c36 62 0 35
bh fat 38481ec96fd61f4f 62 0 -
bh mscc 173845ff1c5cd305 100 0 -
tsp strict 1b14ef7801323a24 24 0 11
tsp store fc2c43a581d715ac 30 0 6
tsp hardened 1b14ef7801323a24 24 0 11
tsp fat 9205cbe9bee626b4 24 0 -
tsp mscc e4ff2dc3716beeb2 24 0 -
libquantum strict 38911998a9b8a9ca 63 0 35
libquantum store cc2be73898ce3a3b 89 0 11
libquantum hardened 38911998a9b8a9ca 63 0 35
libquantum fat 9fa79086b00643ca 63 0 -
libquantum mscc 608adb311047ff30 82 0 -
perimeter strict b2bbce97a8424300 97 0 46
perimeter store 52ba3a6ac6ce1258 135 0 14
perimeter hardened b2bbce97a8424300 97 0 46
perimeter fat 03633dbd306f7240 97 0 -
perimeter mscc 174f2d5a09fa8259 138 0 -
health strict f902e3734a7cdfc8 64 1 40
health store bb6c5b3c2f626b6b 89 0 26
health hardened b50608dd57db587d 63 0 41
health fat a82dc119d4d627a9 64 1 -
health mscc 7a5b82809ba47bce 111 1 -
bisort strict 7ed8c7af99649086 23 0 17
bisort store 4addfde59ab0fc8a 36 0 10
bisort hardened 7ed8c7af99649086 23 0 17
bisort fat b97bf27f9b8ba1a7 23 0 -
bisort mscc a35ea1d97d0be0a0 46 0 -
mst strict da4383f610bec4da 46 2 23
mst store a4644910fc62cece 59 0 16
mst hardened 31f9b4db70b27605 44 0 24
mst fat 922aa85d5e0eb4bb 46 2 -
mst mscc 718ddf6a9b17c1c8 62 2 -
li strict 74c59cba1886d0aa 31 3 20
li store 8eae0727734b6188 40 0 13
li hardened a2b2372c883ebc2c 28 0 22
li fat 6b4a107b61cd9751 31 3 -
li mscc ae94d477bb30bbde 53 3 -
em3d strict 33e61d262eddccc3 41 0 16
em3d store 8fc8ca9e3fa7689b 53 0 11
em3d hardened 33e61d262eddccc3 41 0 16
em3d fat fa52de7293b10be1 41 0 -
em3d mscc 0c79116ead263c95 50 0 -
treeadd strict 61b52f69e2e07ac7 8 0 6
treeadd store 671ee4aefc80f4a5 11 0 5
treeadd hardened 61b52f69e2e07ac7 8 0 6
treeadd fat 7e889a8199948937 8 0 -
treeadd mscc f1b59e8afffab1bb 16 0 -
libc.memcpy strict e11a711f0f559fb4 4 0 2
libc.memcpy store 8d15e67536177c1d 4 0 1
libc.memcpy hardened e11a711f0f559fb4 4 0 2
libc.memcpy fat 58576d820772c592 4 0 -
libc.memcpy mscc 544fa291dda712d6 4 0 -
libc.memmove strict d482491d28dd7119 8 0 4
libc.memmove store 6b04bb7698d5fcef 8 0 2
libc.memmove hardened d482491d28dd7119 8 0 4
libc.memmove fat ab20948ea1c8f6cf 8 0 -
libc.memmove mscc 0be1d311e8a03b01 8 0 -
libc.memset strict 92d527870986f070 2 0 1
libc.memset store 36c212549f68e610 4 0 0
libc.memset hardened 92d527870986f070 2 0 1
libc.memset fat a33246c52779c5ba 2 0 -
libc.memset mscc 8bd98275c6d6f105 2 0 -
libc.strcpy strict 7685081c9845751d 4 0 2
libc.strcpy store 7685081c9845751d 4 0 2
libc.strcpy hardened 7685081c9845751d 4 0 2
libc.strcpy fat 09398ece955cd075 4 0 -
libc.strcpy mscc cef163e6148174ab 4 0 -
libc.strncpy strict 766972603e13d9bb 6 0 3
libc.strncpy store 52f88430e51156aa 6 0 2
libc.strncpy hardened 766972603e13d9bb 6 0 3
libc.strncpy fat 1ea00d2950489947 6 0 -
libc.strncpy mscc 0aa13c3363c23866 6 0 -
libc.strcmp strict 85d894d9014406a3 8 0 4
libc.strcmp store 85d894d9014406a3 8 0 4
libc.strcmp hardened 85d894d9014406a3 8 0 4
libc.strcmp fat f04157eb2a6a2cc3 8 0 -
libc.strcmp mscc 5b3b9e481085a78b 8 0 -
libc.strtok strict 736587904d557bd4 4 0 2
libc.strtok store e125a795995131da 4 0 1
libc.strtok hardened 736587904d557bd4 4 0 2
libc.strtok fat 0d3b82dbbff834f8 4 0 -
libc.strtok mscc 48217dc7e326cc32 4 0 -
libc.sprintf strict 3faffde4a8a8046e 10 0 5
libc.sprintf store b51dedc526c8d70a 10 0 4
libc.sprintf hardened 3faffde4a8a8046e 10 0 5
libc.sprintf fat 174dd1f65ddcd5da 10 0 -
libc.sprintf mscc ebf2cffd18d56287 10 0 -
libc.strcpy_off_by_one strict f5e54f66a537c362 10 0 5
libc.strcpy_off_by_one store 18ff54bbf62a65d6 10 0 3
libc.strcpy_off_by_one hardened f5e54f66a537c362 10 0 5
libc.strcpy_off_by_one fat 42d84761bc3001d8 10 0 -
libc.strcpy_off_by_one mscc 5a4fa1943d5b18af 10 0 -
libc.negindex strict 3ac3366c16dfe91a 4 0 2
libc.negindex store 7f7c14566a57ecd6 4 0 1
libc.negindex hardened 3ac3366c16dfe91a 4 0 2
libc.negindex fat e0a3010a4c25f596 4 0 -
libc.negindex mscc 84f3d2ccf9e0cbca 4 0 -
libc.header strict 98449e1a26ea597d 4 0 2
libc.header store cd57966ef95baf61 4 0 1
libc.header hardened 98449e1a26ea597d 4 0 2
libc.header fat a52ba76cb1425271 4 0 -
libc.header mscc a95c4934d22bba0f 4 0 -
daemon.tinyftp strict 0c308cc26c44a70c 174 2 77
daemon.tinyftp store 02c70bfe8cb8872a 203 0 53
daemon.tinyftp hardened d15d5a26d04a84ac 172 0 77
daemon.tinyftp fat c256e4cf15498e37 174 2 -
daemon.tinyftp mscc 6c8d9801bfb8fa1d 228 2 -
daemon.nhttpd strict 8ef5ac8ca2f5c787 122 1 55
daemon.nhttpd store 3c382222a79e8f70 124 0 26
daemon.nhttpd hardened 074fbcdf2ca02680 121 0 56
daemon.nhttpd fat 4c9ab0a84cdfc58b 122 1 -
daemon.nhttpd mscc 21ba8592dbee09ee 129 1 -
attack.01 strict e715d7f5da1d92b4 3 0 1
attack.01 store e715d7f5da1d92b4 3 0 1
attack.01 hardened e715d7f5da1d92b4 3 0 1
attack.01 fat 34e05336d9d7ce90 3 0 -
attack.01 mscc 11638c4c57423417 3 0 -
attack.02 strict d1b38e0aba568f24 9 0 3
attack.02 store d1b38e0aba568f24 9 0 3
attack.02 hardened d1b38e0aba568f24 9 0 3
attack.02 fat ca1c58c36f94234e 9 0 -
attack.02 mscc d9272b78aeecb129 9 0 -
attack.03 strict 28a75704e0831ab5 5 1 2
attack.03 store 28a75704e0831ab5 4 0 2
attack.03 hardened 623b7f0500ce1d47 4 0 2
attack.03 fat f3b60f8a5a865dee 5 1 -
attack.03 mscc a476faaf0142fb55 5 1 -
attack.04 strict 694b4fad2a25b412 5 1 2
attack.04 store 694b4fad2a25b412 4 0 2
attack.04 hardened a501b81f5f377817 4 0 2
attack.04 fat ba0a402469aff329 5 1 -
attack.04 mscc a6e8cabd8b78895c 5 1 -
attack.05 strict 04e4fd92f3d0e593 2 0 1
attack.05 store 04e4fd92f3d0e593 2 0 1
attack.05 hardened 04e4fd92f3d0e593 2 0 1
attack.05 fat 57f297067d00fdbd 2 0 -
attack.05 mscc 0156b9ed2442946c 2 0 -
attack.06 strict 5b2874062c62e214 5 1 3
attack.06 store 5b2874062c62e214 4 0 3
attack.06 hardened 7809ee311c97fc5a 4 0 3
attack.06 fat 32e826650f84f9a5 5 1 -
attack.06 mscc bbf7f355e22c3598 5 1 -
attack.07 strict 271a4bfd533537bf 2 0 1
attack.07 store 37e33c352d10942e 2 0 1
attack.07 hardened 271a4bfd533537bf 2 0 1
attack.07 fat 7fc1870f365de301 2 0 -
attack.07 mscc 91da03e50fa55645 2 0 -
attack.08 strict 5f0d60c6df9086ec 2 0 1
attack.08 store 5f0d60c6df9086ec 2 0 1
attack.08 hardened 5f0d60c6df9086ec 2 0 1
attack.08 fat c91baafb9683c59a 2 0 -
attack.08 mscc 2ba0e5a33c29c148 2 0 -
attack.09 strict 4db558a1fafa2fce 5 1 3
attack.09 store 4db558a1fafa2fce 4 0 3
attack.09 hardened 2f6d88611f2c63d3 4 0 3
attack.09 fat 3595419e142eee10 5 1 -
attack.09 mscc 43c8f05c60116a9b 5 1 -
attack.10 strict ee0542b3954ede55 8 1 5
attack.10 store ee0542b3954ede55 7 0 5
attack.10 hardened 41b46064974a3d5c 7 0 5
attack.10 fat c426ce39ac29b747 8 1 -
attack.10 mscc be9ab8e9b15b6746 8 1 -
attack.11 strict f7de376c45eb019f 7 2 4
attack.11 store f7de376c45eb019f 5 0 4
attack.11 hardened 0be459bd91da0757 5 0 4
attack.11 fat e2c4e25d40d12a12 7 2 -
attack.11 mscc 10b727be65f6d29f 7 2 -
attack.12 strict 873135c1dcb0df42 7 2 4
attack.12 store 873135c1dcb0df42 5 0 4
attack.12 hardened f8ad8e06185376f1 5 0 4
attack.12 fat 421458be4a55a461 7 2 -
attack.12 mscc 410f58ec679bd1d2 7 2 -
attack.13 strict 6501ca561facc81e 3 1 3
attack.13 store 6501ca561facc81e 2 0 3
attack.13 hardened 58b1b6f6304d3fcc 2 0 3
attack.13 fat 8d3781796c4d0570 3 1 -
attack.13 mscc 954305afd6ccb1d7 3 1 -
attack.14 strict 0ecf7689a00534d6 7 2 5
attack.14 store 0ecf7689a00534d6 5 0 5
attack.14 hardened d19df97006fcc460 5 0 5
attack.14 fat 56836ec10df035ed 7 2 -
attack.14 mscc a3d05d23111c947c 7 2 -
attack.15 strict c9f11d83cbe62343 6 0 3
attack.15 store 57d284d0f1b2f065 7 0 3
attack.15 hardened c9f11d83cbe62343 6 0 3
attack.15 fat 6c2f6a5835195b7a 6 0 -
attack.15 mscc cb43ded50289373a 9 0 -
attack.16 strict be9cbc161d9ddced 8 0 5
attack.16 store 721642e6db61c72e 9 0 5
attack.16 hardened be9cbc161d9ddced 8 0 5
attack.16 fat d137ca12fb20d773 8 0 -
attack.16 mscc fc8403b2d559e3aa 11 0 -
attack.17 strict 3658e57a8cc30f78 3 1 3
attack.17 store 698b5f3e9ded47e0 2 0 3
attack.17 hardened 9c99fca0dc2c98c9 2 0 3
attack.17 fat f45087b298e55c15 3 1 -
attack.17 mscc 3efd30c954fcab43 3 1 -
attack.18 strict 8e88ff2ec04351cc 7 0 3
attack.18 store 138f2974661bc47e 8 0 3
attack.18 hardened 8e88ff2ec04351cc 7 0 3
attack.18 fat 426327727f9dc862 7 0 -
attack.18 mscc 9f25520f8d7cd9f2 10 0 -
bugbench.go strict e887a80aadaa026b 9 0 3
bugbench.go store c92042db3edf734b 10 0 2
bugbench.go hardened e887a80aadaa026b 9 0 3
bugbench.go fat d7100fdd05721169 9 0 -
bugbench.go mscc 74dbf53597d84554 12 0 -
bugbench.compress strict da89ed8746b8f0bc 2 0 2
bugbench.compress store e38421928a11e941 2 0 1
bugbench.compress hardened da89ed8746b8f0bc 2 0 2
bugbench.compress fat f8cc10a891348d26 2 0 -
bugbench.compress mscc c04d1ac729302a26 2 0 -
bugbench.polymorph strict 6636288913378fba 1 0 0
bugbench.polymorph store 6636288913378fba 1 0 0
bugbench.polymorph hardened 6636288913378fba 1 0 0
bugbench.polymorph fat 0bd08d3b0a5143e0 1 0 -
bugbench.polymorph mscc 3fdfadbbf880a8dc 1 0 -
bugbench.gzip strict 59e65a83860cd7c6 2 0 2
bugbench.gzip store 0f8c289528f89972 2 0 1
bugbench.gzip hardened 59e65a83860cd7c6 2 0 2
bugbench.gzip fat 566ae02db107d1d6 2 0 -
bugbench.gzip mscc ef2a3c51def9bf4c 2 0 -
";
