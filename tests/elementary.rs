//! `gis_linalg::elementary` against glibc 2.36's x86-64 FMA `exp`, `log` and
//! `sincos`.
//!
//! `elementary_matches_pinned_glibc_bits` compares recorded (input bits,
//! output bits) pairs that cover every branch, and
//! `elementary_matches_glibc_digests` compares digests of glibc's results on
//! 2¹⁸ arguments per caller domain, so both check the code on any host. The
//! `#[ignore]`d `elementary_census` compares 10⁸ arguments per domain with
//! the host's `f64` functions; on a host whose libm is not glibc 2.36 with
//! FMA it measures that libm, not this code.
//!
//! ```text
//! cargo test --release --test elementary -- --ignored
//! ```

use gis_linalg::elementary::{exp, ln, sin_cos};

/// SplitMix64: a fixed argument stream independent of the crates under test.
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on [0, 1), 53 bits.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[test]
fn elementary_matches_pinned_glibc_bits() {
    let hex = |v: f64| format!("{v:e} ({:#018x})", v.to_bits());
    let mut wrong = Vec::new();
    for &(x, want) in EXP_PINS {
        let got = exp(f64::from_bits(x));
        if got.to_bits() != want {
            wrong.push(format!("exp({}) = {}", hex(f64::from_bits(x)), hex(got)));
        }
    }
    for &(x, want) in LN_PINS {
        let got = ln(f64::from_bits(x));
        if got.to_bits() != want {
            wrong.push(format!("ln({}) = {}", hex(f64::from_bits(x)), hex(got)));
        }
    }
    for &(x, want_sin, want_cos) in SIN_COS_PINS {
        let (s, c) = sin_cos(f64::from_bits(x));
        if s.to_bits() != want_sin || c.to_bits() != want_cos {
            wrong.push(format!(
                "sin_cos({}) = ({}, {})",
                hex(f64::from_bits(x)),
                hex(s),
                hex(c)
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} pins differ:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // NaN payloads differ between libms; only NaN-ness is pinned.
    assert!(exp(f64::NAN).is_nan() && ln(f64::NAN).is_nan() && ln(-1.0).is_nan());
    let (s, c) = sin_cos(f64::NAN);
    assert!(s.is_nan() && c.is_nan());
    let (s, c) = sin_cos(f64::INFINITY);
    assert!(s.is_nan() && c.is_nan());
}

/// One argument domain the callers reach: arguments `draw(u)` for `u` from
/// `Stream(seed)`, with the function under test and the host's counterpart
/// (`exp` and `ln` report 0.0 as their second value).
struct Domain {
    label: &'static str,
    seed: u64,
    draw: fn(f64) -> f64,
    ours: fn(f64) -> (f64, f64),
    host: fn(f64) -> (f64, f64),
    /// [`digest`] of glibc 2.36's results on the first [`DIGEST_ARGUMENTS`]
    /// arguments, recorded with a C program on the same stream.
    glibc_digest: u64,
}

fn domains() -> [Domain; 5] {
    [
        Domain {
            label: "exp on [-745, 710]",
            seed: 1,
            draw: |u| -745.0 + 1455.0 * u,
            ours: |x| (exp(x), 0.0),
            host: |x| (x.exp(), 0.0),
            glibc_digest: 0x8b92_6f95_92e5_90fa,
        },
        Domain {
            label: "ln on (0, 1)",
            seed: 2,
            draw: |u| u,
            ours: |x| (ln(x), 0.0),
            host: |x| (x.ln(), 0.0),
            glibc_digest: 0x4cfd_5823_2d7e_09a3,
        },
        Domain {
            label: "ln on 1 + e^t, t in [-40, 40]",
            seed: 3,
            draw: |u| 1.0 + exp(-40.0 + 80.0 * u),
            ours: |x| (ln(x), 0.0),
            host: |x| (x.ln(), 0.0),
            glibc_digest: 0x70d8_1340_1d37_ac47,
        },
        Domain {
            label: "sin_cos on [0, 2pi)",
            seed: 4,
            draw: |u| std::f64::consts::TAU * u,
            ours: sin_cos,
            host: |x| (x.sin(), x.cos()),
            glibc_digest: 0x84e8_0bae_c099_d757,
        },
        Domain {
            label: "sin_cos on [-100, 100]",
            seed: 5,
            draw: |u| -100.0 + 200.0 * u,
            ours: sin_cos,
            host: |x| (x.sin(), x.cos()),
            glibc_digest: 0xb3d3_9547_8024_3433,
        },
    ]
}

/// Arguments per domain in [`elementary_matches_glibc_digests`].
const DIGEST_ARGUMENTS: usize = 1 << 18;

/// Word-wise FNV-1a over both output values of `f` on the first `n`
/// arguments of `domain`.
fn digest(domain: &Domain, n: usize, f: fn(f64) -> (f64, f64)) -> u64 {
    let mut stream = Stream(domain.seed);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for _ in 0..n {
        let (a, b) = f((domain.draw)(stream.uniform()));
        for v in [a, b] {
            hash = (hash ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The explicit pins above hold about 100 arguments per function, too few
/// to catch a single unfused operation, which moves a last bit once in
/// hundreds to thousands of arguments; 2¹⁸ arguments per domain do, without
/// reading the host libm.
#[test]
fn elementary_matches_glibc_digests() {
    for domain in domains() {
        assert_eq!(
            digest(&domain, DIGEST_ARGUMENTS, domain.ours),
            domain.glibc_digest,
            "{}: some output differs from glibc's",
            domain.label
        );
    }
}

/// Arguments per census domain.
const CENSUS_ARGUMENTS: u64 = 100_000_000;

#[test]
#[ignore = "10^8 arguments per domain; run in release"]
fn elementary_census() {
    let mut mismatches = Vec::new();
    for domain in domains() {
        let mut stream = Stream(domain.seed);
        let mut count = 0;
        for _ in 0..CENSUS_ARGUMENTS {
            let x = (domain.draw)(stream.uniform());
            let (a, b) = ((domain.ours)(x), (domain.host)(x));
            if a.0.to_bits() != b.0.to_bits() || a.1.to_bits() != b.1.to_bits() {
                if count < 5 {
                    eprintln!(
                        "{}: x = {x:e} ({:#018x}): {a:?} vs {b:?}",
                        domain.label,
                        x.to_bits()
                    );
                }
                count += 1;
            }
        }
        println!(
            "{}: {count} mismatches in {CENSUS_ARGUMENTS} arguments",
            domain.label
        );
        mismatches.push(count);
    }
    assert_eq!(mismatches, [0; 5]);
}

/// glibc 2.36 `exp` (x86-64, FMA): (x, exp x) as bits.
const EXP_PINS: &[(u64, u64)] = &[
    // Fast path, 2^-54 <= |x| < 512.
    (0xc074c958770139b0, 0x21f22891f9029af4), // -332.58409786680841
    (0x40540cf7c57f8300, 0x472a22a107ae4371), // 80.202622770808375
    (0x407749aba8ee1b6a, 0x61877fc4b1c90c0e), // 372.60440915117817
    (0x4076e0765e0d9074, 0x60f0c5e9127632e3), // 366.02889828966659
    (0xc0186a11f2af1fc0, 0x3f624ece73164a7d), // -6.1035840911280843
    (0x407cf911c2eb2042, 0x69bb949a89e6b261), // 463.56683627935502
    (0xc07d9ab6e5ebe038, 0x1538eb1db0f6f13f), // -473.66965286387449
    (0x4064af2eb2e21e94, 0x4eda85dfda348417), // 165.47445053256945
    (0xc04659c8d0665550, 0x3be6c6b2c1ec6cbd), // -44.70144085880986
    (0xc06511cca1282d06, 0x30bc570553f24c22), // -168.55622918936587
    (0x4074b2d34d754c4e, 0x5dcb9ab2a4c1dc43), // 331.17658754176671
    (0x4077da3fc4f9aa64, 0x62581993badce94a), // 381.64056870961781
    (0xc0719b57c9bc167c, 0x2687ea900da47d3b), // -281.70893262359436
    (0x406782e3c6a836b0, 0x50e47dcf55ba66f7), // 188.09030468801711
    (0x4064f55f460dae34, 0x4f0db9acc9176b26), // 167.66788008377046
    (0xc054252346edfabc, 0x38aadb6bc3dd4862), // -80.580278141404904
    (0x405800e2a7c282f0, 0x4896ec1e1f978e0b), // 96.013833942368137
    (0xc075ca07314ab088, 0x20806d0d5f9f5f94), // -348.62675599265685
    (0xc042e4634b962cf0, 0x3c8673d927058930), // -37.784280250862025
    (0xc0679a389598b690, 0x2ee81a8660ee6e6b), // -188.81940727068695
    (0x40738528814b8b38, 0x5c180441b23c788d), // 312.32238893040949
    (0x4072e03d611b12c6, 0x5b2a45f214baa43f), // 302.01498518538972
    (0x406f7ce088b39444, 0x56a561e91d1cf3ee), // 251.90240893434577
    (0xc0237ce8ceeb75c0, 0x3f0ebf8ca1b0d058), // -9.743963686220809
    (0xc07dde94bc86a3da, 0x14d6f0568e3515a5), // -477.91131260484474
    (0xc0434ce993f006a8, 0x3c73d852975c18b9), // -38.600878231239506
    (0xc07a3e639610a92e, 0x1a128cc989efdd45), // -419.89931303508899
    (0x407d7ff46640694e, 0x6a7eddd7a0a7f81a), // 471.99716782723124
    (0x405ad0f740928618, 0x499aec840d50e71a), // 107.26509107884374
    (0xc069b83f5b62b80a, 0x2d61ce7b33097c1c), // -205.75773400574718
    (0x4074cd18ead14092, 0x5df1d2d9b8fe4cfe), // 332.81858331431533
    (0xc0773cdefe6c40bc, 0x1e683e8c7e581a02), // -371.80444185529973
    (0xc07e70a023a71123, 0x1404689f0ec43358), // -487.03909650097393
    (0x4042c3e0753dd820, 0x4351b0516373f740), // 37.530287413785345
    (0xc076ab98c57c41f2, 0x1f39f82194ed5040), // -362.72479771173596
    (0x40639593f5fda4f0, 0x4e105f8120509879), // 156.67431163349056
    (0xc011ec4785733fc0, 0x3f8731915414eec1), // -4.4807415820686742
    (0xc061f38200fd1b20, 0x32fc26a78bd25422), // -143.60961961207158
    (0x4030cb2678ea84a0, 0x4172bd35924ec208), // 16.79355579114474
    (0xc041e29bdc64ff50, 0x3cb50732e7ccf246), // -35.770381497683616
    (0xc043c8935f92930b, 0x3c5e3568eb4aad73), // -39.5669974771209
    (0xc043fb440b64dcd7, 0x3c54548ce281238a), // -39.963014053582519
    (0xc043eb3b407acead, 0x3c570b1c60cde183), // -39.837745723690524
    (0xc043ee515ed79d60, 0x3c567e91d8c4b6b4), // -39.861858229904783
    (0xc0441fc6d5eab5a3, 0x3c4e91e70742f137), // -40.248255481342561
    (0xc0442755ac2ceddc, 0x3c4cd13019c4afc5), // -40.307302019060188
    (0xc0440bcbcd476af3, 0x3c51de029aff9666), // -40.092157039520224
    (0xc0443822cc46c142, 0x3c4945b7ec65c64e), // -40.438561949299142
    (0xc0443ce58efedd65, 0x3c48598196f56617), // -40.475755571790422
    (0xc043d30056aec983, 0x3c5bd87d9d80f08c), // -39.648447833390513
    (0xc043f5e511fe3303, 0x3c553395a1378a0a), // -39.921053170319304
    (0xc0443396301f2836, 0x3c4a2fcb51f52d91), // -40.403020873273292
    (0x4043c97b8a3e0f40, 0x438111be40d15da4), // 39.574082641890072
    (0x40442f6fb33c1f6f, 0x4392ed992c6cbf4d), // 40.370596317631559
    (0x4043f7baa4030a2b, 0x43887f6ee97e3bd1), // 39.935383321270216
    (0x404432074af477c2, 0x439350ba631c37f8), // 40.390847558373494
    (0xc07f312f8067f804, 0x12efbdb161d424e5), // -499.0740970670015
    (0xc07f48f23f46ce10, 0x12ccc19ecb118309), // -500.55914237650086
    (0xc07f3ce0b8bcb0ad, 0x12de91aff644df46), // -499.80486367899977
    (0xc07f2462199a5167, 0x1301a9adf8ab157c), // -498.27395019798718
    (0xc07f3fccd3a902b4, 0x12d9774fa3ba1540), // -499.98750654239416
    (0xc07f282a4608ecaa, 0x12fbe39fe4093e2b), // -498.51032069669839
    (0xc07f3851e55f805c, 0x12e45278e1671a43), // -499.51999413781391
    (0xc07f4576a2f8165a, 0x12d1dfef94f57a64), // -500.34146401318651
    (0xc07f43fdb2e71e97, 0x12d399064f7e25f1), // -500.24943819314052
    (0xc07f3c2d4cdcfab8, 0x12dff01a58f55fa2), // -499.76105963058535
    (0xbf0533fd2ba9dc29, 0x3fefffab307bb57b), // -4.0441669132578184e-05
    (0x3f36e14a55d5e642, 0x3ff0016e2501d27a), // 0.00034912171198406641
    (0x3f115677a291e28f, 0x3ff000455a74d7ad), // 6.6138317054051927e-05
    (0x3f053e4e6dc76efa, 0x3ff0002a7cd544c2), // 4.0518539865278981e-05
    (0x3f2e29a0c9727748, 0x3ff000f154220038), // 0.00023012244921443771
    (0xbf1b6d690596fd48, 0x3fefff2497a80f7b), // -0.00010462716581737419
    (0xbf2632096f0f3daa, 0x3feffe9ce71b802e), // -0.00016933789404881039
    (0xbf25f3da8c3cd9cb, 0x3feffea0c9dec934), // -0.00016748469180934001
    (0x3f109ee4056cc4fe, 0x3ff000427c1a3602), // 6.3402812298791301e-05
    (0x3eec427b79af2ac1, 0x3ff0000e2143fa12), // 1.3475273410797573e-05
    (0xbd4be771689ff068, 0x3feffffffffff906), // -1.982703724172967e-13
    (0xbd462d1252368e78, 0x3feffffffffffa75), // -1.5757038915244284e-13
    (0x3d54ee32d822aae2, 0x3ff000000000053c), // 2.9743977339262607e-13
    (0xbd5c3f74cbf7457e, 0x3feffffffffff1e0), // -4.0142646080946791e-13
    (0x3d4d3f4bd09790dc, 0x3ff00000000003a8), // 2.0781421449267851e-13
    (0x3d4c4ad660f1b798, 0x3ff0000000000389), // 2.0102912159234475e-13
    (0x3c90000000000000, 0x3ff0000000000000), // 5.5511151231257827e-17
    (0xbc90000000000000, 0x3ff0000000000000), // -5.5511151231257827e-17
    (0x3ca0000000000000, 0x3ff0000000000000), // 1.1102230246251565e-16
    (0x407fffffffffffff, 0x6e19476504ba839a), // 511.99999999999994
    (0xc07fffffffffffff, 0x11c44109edb20a75), // -511.99999999999994
    (0x3ff0000000000000, 0x4005bf0a8b145769), // 1
    (0xbff0000000000000, 0x3fd78b56362cef38), // -1
    (0x3fe0000000000000, 0x3ffa61298e1e069c), // 0.5
    // Fallback, |x| < 2^-54 or |x| >= 512: results every libm gives.
    (0x0000000000000000, 0x3ff0000000000000), // 0
    (0x8000000000000000, 0x3ff0000000000000), // -0
    (0x3c30000000000000, 0x3ff0000000000000), // 8.6736173798840355e-19
    (0xbc30000000000000, 0x3ff0000000000000), // -8.6736173798840355e-19
    (0x0000000000000001, 0x3ff0000000000000), // 4.9406564584124654e-324
    (0x408f400000000000, 0x7ff0000000000000), // 1000
    (0xc08f400000000000, 0x0000000000000000), // -1000
    (0x7ff0000000000000, 0x7ff0000000000000), // inf
    (0xfff0000000000000, 0x0000000000000000), // -inf
    (0x7e37e43c8800759c, 0x7ff0000000000000), // 1.0000000000000001e+300
];

/// glibc 2.36 `log` (x86-64, FMA): (x, ln x) as bits.
const LN_PINS: &[(u64, u64)] = &[
    // Near 1, 1 - 2^-4 <= x < 1 + 0x1.09p-4.
    (0x3ff016674410fb04, 0x3f7657a35b01f101), // 1.0054695757714294
    (0x3ff046c565be6198, 0x3f918aaa40b032aa), // 1.0172780966150636
    (0x3fef060b725dd912, 0xbf9fbb22dfce527b), // 0.96948788010812081
    (0x3fee3836f3eda1b7, 0xbfad4f4a54b0b01e), // 0.9443621410583124
    (0x3feee77e2474594e, 0xbfa1d6c1b48fbbf6), // 0.96575839157120824
    (0x3ff03623f3ba3e58, 0x3f8ae4936b776716), // 1.0132178803068168
    (0x3ff082868349624d, 0x3fa00fa505d44951), // 1.0318665626893051
    (0x3fef7b1dc68c55a7, 0xbf90bf24dfb5aa67), // 0.98377884653989589
    (0x3fefb0f908c395ed, 0xbf83da4b911ea91a), // 0.99035312377662665
    (0x3fee3622b235fe25, 0xbfad7285622d4d92), // 0.94410834128206444
    (0x3fee0fb549fc3b24, 0xbfafff61828acc70), // 0.93941750002145286
    (0x3feefa8d115d88e6, 0xbfa09b6454d3380b), // 0.96808484450982912
    (0x3fef5530f2c6d165, 0xbf9593ab7a3baff4), // 0.97914931695281082
    (0x3fee03484a18be42, 0xbfb06997c57c2ee2), // 0.9379006812286621
    (0x3ff0829f38400591, 0x3fa012a337d94597), // 1.0318901250142043
    (0x3fee1ba094d9a3dd, 0xbfaf34889dcde081), // 0.94087246963783466
    (0x3ff000000016f60e, 0x3df6f60dffef8649), // 1.0000000003341287
    (0x3feffffffff9b27f, 0xbdc9360400027b98), // 0.99999999995414146
    (0x3ff000000006399e, 0x3dd8e677fffb27f4), // 1.0000000000905866
    (0x3fefffffffc45d98, 0xbdfdd134001bc886), // 0.99999999956610264
    (0x3fefffffffed9fdb, 0xbde26025000546a5), // 0.99999999986630017
    (0x3ff00000000dcab3, 0x3deb9565fff41c95), // 1.000000000200697
    (0x3ff0000000207238, 0x3e00391bffef8cfc), // 1.0000000004721539
    (0x3ff00000000b0c8d, 0x3de61919fff85eb4), // 1.0000000001607845
    (0x3fee000000000000, 0xbfb08598b59e3a07), // 0.9375
    (0x3fedffffffffffff, 0xbfb08598b59e3a0f), // 0.93749999999999989
    (0x3ff108ffffffffff, 0x3fb00c7c14184eb6), // 1.0646972656249998
    (0x3ff1090000000000, 0x3fb00c7c14184ec5), // 1.064697265625
    (0x3ff0000000000001, 0x3cafffffffffffff), // 1.0000000000000002
    (0x3fefffffffffffff, 0xbca0000000000000), // 0.99999999999999989
    (0x3ff0000000000000, 0x0000000000000000), // 1
    // Table path, x < 1.
    (0x3fcf9e8b48abed24, 0xbff65f4825f6bfd0), // 0.24702588127534242
    (0x3fd074b6acccd9fe, 0xbff5bb2e17bece40), // 0.25712363123912485
    (0x3fe2bcce3ddf7a67, 0xbfe1206c3ec5fdd2), // 0.58554756245196138
    (0x3feab7db9596c951, 0xbfc7170e816096f8), // 0.83494357315638912
    (0x3fec928ec1e3748a, 0xbfbd00ac190f3d9b), // 0.89289033764693326
    (0x3fc0daab5c5b7714, 0xc000382e20640d15), // 0.13167325982697575
    (0x3fe43da63a7ad360, 0xbfdd50709a7e1015), // 0.63252555295785484
    (0x3f82c0cfcb8d1cc0, 0xc012c5e4f047d485), // 0.0091568216318037576
    (0x3fe73666f3481032, 0xbfd48bfeb5d11c14), // 0.72539088741223723
    (0x3fd541d61902fc52, 0xbff1a2909a99ac39), // 0.33214333002610374
    (0x3fb51feebb4e0408, 0xc003f53670ebb777), // 0.082518501976679315
    (0x3fd08d2437deb7f2, 0xbff5a37f5d7e9b75), // 0.25861459213308458
    (0x3fe175d1adc4ed91, 0xbfe362cbf2388c1a), // 0.54563220919901501
    (0x3fd49b753dc82044, 0xbff221c00200b5a5), // 0.32198840173123622
    (0x3feffabf7276165a, 0xbf4503efb4df2ed7), // 0.99935886722296208
    (0x3fe53576d1f06042, 0xbfda530727fb8830), // 0.6627763843889698
    (0x3fb751110c78d038, 0xc0032b06ca1fb409), // 0.091080728096870511
    (0x3fb03f09c76e08c0, 0xc0060efb914b0787), // 0.063461886586114069
    (0x3fc4312c1e748298, 0xbffd8c3f13ccdd35), // 0.15775062071863455
    (0x3fe273052ea3d28b, 0xbfe19f69b88fdbdc), // 0.57654055699693296
    (0x01835bc6b9d3e423, 0xc085a21ba0e12661), // 2.2583230942566753e-301
    (0x3041bab9c431406d, 0xc065bc12e5fb5624), // 3.0622812295264469e-76
    (0x30b841db58300877, 0xc06516c6f18efa95), // 5.3629370152043057e-74
    (0x13ce118ea06e4e6b, 0xc07e96c960bc67ff), // 2.7911683943439663e-213
    (0x39d0da9407423f77, 0xc050f81782da9908), // 3.3238301686608131e-30
    (0x36111e240da64dd1, 0xc05b5cc8581a3a2a), // 2.9281078434590243e-48
    (0x1ec81bbc1f949447, 0xc076fa6b3fb1bf5f), // 2.1434808832232275e-160
    (0x17f34be914901b17, 0xc07bb6d46a5a58c3), // 2.6433940311141886e-193
    (0x0010000000000000, 0xc086232bdd7abcd2), // 2.2250738585072014e-308
    (0x3fe0000000000000, 0xbfe62e42fefa39ef), // 0.5
    (0x3fd0000000000000, 0xbff62e42fefa39ef), // 0.25
    // Table path, x > 1: the soft-plus arguments 1 + e^t, t in [-40, 40], and beyond.
    (0x3ff000000001786b, 0x3db786affffeeb43), // 1.0000000000213969
    (0x4271597517f58c11, 0x403bce8e4e0b0644), // 1192244641624.7542
    (0x3ff09d91557ccf2b, 0x3fa3539a00b5e7cd), // 1.0384686793667679
    (0x4098e089b0667514, 0x401d7dc75d0dfc15), // 1592.134461975952
    (0x3ff0000000294aec, 0x3e04a575ffe55baa), // 1.0000000006008873
    (0x3ff00000f8b3f89d, 0x3eaf167e2202d992), // 1.0000009264909189
    (0x4330eadb6e4c694a, 0x40420cb966943ec4), // 4761827796609354
    (0x3ff0000000000002, 0x3cbffffffffffffe), // 1.0000000000000004
    (0x42bff58f16fdf715, 0x403f30baa1a45988), // 35139528097271.082
    (0x430790f7fe1dbde2, 0x40412cfbfddc1142), // 829164907378620.25
    (0x3ff0000bba96d265, 0x3ee775250bbeda33), // 1.0000111855162228
    (0x3ff00001bdb798d2, 0x3ebbdb78091c35ab), // 1.0000016604258701
    (0x409ac87f18144fce, 0x401dc9609609f9da), // 1714.1241152929028
    (0x3ff000000000001d, 0x3cfcffffffffffe6), // 1.0000000000000064
    (0x42330c4880e6b7db, 0x403920af0a5ed06d), // 81810456806.718185
    (0x3ff6f912325977fb, 0x3fd7268d41bc765f), // 1.4358083693291508
    (0x3ff0000000000000, 0x0000000000000000), // 1
    (0x4008f70636104165, 0x3ff2355fd36e7c46), // 3.1206173156462449
    (0x76f3cd393a42d533, 0x408311762924efd4), // 9.9764878900952264e+264
    (0x5d03ca663f4dac22, 0x4074286abc46e3e0), // 1.1783856893323255e+140
    (0x648188760789e46b, 0x4079595253fe1b52), // 1.3876660926484655e+176
    (0x6ab8c9d3852c0d52, 0x407da8ceacf91b2d), // 1.2434984924939668e+206
    (0x520170ae5031235b, 0x40690cfbacca611d), // 1.0841745899712664e+87
    (0x7e809e1c9b68af0f, 0x4085af068f359aae), // 2.2257408946036688e+301
    (0x4000000000000000, 0x3fe62e42fefa39ef), // 2
    (0x438a220d397972eb, 0x4044000000000000), // 2.3538526683702e+17
    (0x7fefffffffffffff, 0x40862e42fefa39ef), // 1.7976931348623157e+308
    // Fallback: zero, negative, subnormal, infinite.
    (0x0000000000000000, 0xfff0000000000000), // 0
    (0x8000000000000000, 0xfff0000000000000), // -0
    (0xbff0000000000000, 0xfff8000000000000), // -1
    (0x7ff0000000000000, 0x7ff0000000000000), // inf
    (0xfff0000000000000, 0xfff8000000000000), // -inf
    (0x0000000000000001, 0xc0874385446d71c3), // 4.9406564584124654e-324
    (0x000fffffffffffff, 0xc086232bdd7abcd2), // 2.2250738585072009e-308
    (0x000012688b70e62b, 0xc0864e69394d9508), // 9.9999999999999694e-311
    (0x00000000000013c4, 0xc086ff49a03cacf5), // 2.4999721679567075e-320
    (0x0008000000000000, 0xc08628b76e3a7b61), // 1.1125369292536007e-308
];

/// glibc 2.36 `sincos` (x86-64, FMA): (x, sin x, cos x) as bits.
const SIN_COS_PINS: &[(u64, u64, u64)] = &[
    // |x| < 0.855469: Taylor below 0.126, table above.
    (0x3fa027924887b55c, 0x3fa026e2a18b1c6d, 0x3feffbec348f6ab2), // 0.031551905969403576
    (0xbfbf96c495a951bc, 0xbfbf82430587d0f8, 0x3fefc1b678fe52c1), // -0.12339428571551186
    (0x3fb70d629f5733c3, 0x3fb70569c16c7000, 0x3fefdecf37ab4e0d), // 0.090047992612382763
    (0x3fadfc514199e9eb, 0x3fadf7ee1102a45c, 0x3feff1f47abf2d80), // 0.058565654046976189
    (0x3fa041d4f13ceec6, 0x3fa04121ec397660, 0x3feffbdee88cdeda), // 0.03175225682067899
    (0xbf85ffc0e15e1be0, 0xbf85ffa527ac95f3, 0x3fefff8703028ae8), // -0.010741717221902591
    (0x3fb5d4689d4b2a9d, 0x3fb5cda377a2c001, 0x3fefe23c0801c7ab), // 0.08527234878708119
    (0x3fafa53409ec13f1, 0x3fafa00bdacaee99, 0x3feff05b918e874b), // 0.061807275973514104
    (0x3fd1f4e31966590b, 0x3fd1b8d000ebdc19, 0x3feebfaba85abd12), // 0.28057172279785964
    (0xbfe3955b9b70497e, 0xbfe2623af6316eef, 0x3fea313dc260d2b0), // -0.61198215827089064
    (0x3fe5d8c72d0494b8, 0x3fe4305462094e42, 0x3fe8d3e1baeed530), // 0.68271216194684481
    (0xbfe3909c61896f3a, 0xbfe25e5815675702, 0x3fea33f79b89bed2), // -0.61140269327322661
    (0x3fe3fae9b66df7c2, 0x3fe2b4fd929519ce, 0x3fe9f662909902cc), // 0.62437902098439957
    (0xbfdb6aabc825f969, 0xbfda95f60c2fc7c2, 0x3fed1bc0289af076), // -0.42838568254219084
    (0x3fe738f580fb371d, 0x3fe53cb6fddea38d, 0x3fe7efe302438efa), // 0.72570300285017064
    (0xbfe8376385a641c9, 0xbfe5f862554fef7d, 0x3fe7441a765a38e2), // -0.75676132300764565
    (0x3fe38107e64f89ed, 0x3fe25193f7404ebd, 0x3fea3ce5f47f073f), // 0.60950083715971248
    (0xbfe70a6ffbd489a2, 0xbfe519d3e1dacbcb, 0x3fe80ea98f6e0579), // -0.72002410111990778
    (0x3fdc63816c8ad81e, 0x3fdb778448074da4, 0x3fece735bbfc91f8), // 0.44357333755340445
    (0xbfdb3e338878ede5, 0xbfda6d7c1a45c757, 0x3fed24f5a765972b), // -0.42567146613484247
    (0x3e40000000000000, 0x3e40000000000000, 0x3ff0000000000000), // 7.4505805969238281e-09
    (0xbe40000000000000, 0xbe40000000000000, 0x3ff0000000000000), // -7.4505805969238281e-09
    (0x3fc020c49ba5e353, 0x3fc015da194e500d, 0x3fefbf0ed1ec08ed), // 0.12599999999999997
    (0x3fc020c49ba5e354, 0x3fc015da194e500e, 0x3fefbf0ed1ec08ed), // 0.126
    (0xbfc020c49ba5e354, 0xbfc015da194e500e, 0x3fefbf0ed1ec08ed), // -0.126
    (0x3feb5fffffffffff, 0x3fe827f6d2325577, 0x3fe4fcd8091b8f24), // 0.85546874999999989
    (0xbfeb5fffffffffff, 0xbfe827f6d2325577, 0x3fe4fcd8091b8f24), // -0.85546874999999989
    // 0.855469 <= |x| < 2.426265: pi/2 - |x| (Taylor cos near pi/2).
    (0x3ffb55b245c2b00c, 0x3fefb28a71547538, 0xbfc18f7e81d083e4), // 1.7084219670314296
    (0xbffcc281d7d1cb96, 0xbfef2e69648fcbfe, 0xbfccc4bef0c5a20e), // -1.7974871092271534
    (0x3fff80f36c0e2560, 0x3fed7f1b500e37bd, 0xbfd8d0d7a9d5bb31), // 1.9689821453960903
    (0xbff453980211c0f2, 0xbfee912d686bdf41, 0x3fd2efdef30ad392), // -1.2704086380800246
    (0x3ffdb149d0b36e77, 0x3feeb5940b0703e6, 0xbfd1fe475547828e), // 1.8557832863215518
    (0xbffe4b545712876e, 0xbfee596c9469e8bc, 0xbfd44a31a2b37088), // -1.8933909798874669
    (0x4001cc743415fa8a, 0x3fe9657675495456, 0xbfe377f57b10ea92), // 2.2248310155112607
    (0xc00284506c8ea4db, 0xbfe78c71a658bb9c, 0xbfe5aac6bd4903ea), // -2.3146065217048153
    (0x3ff7466b88aa9fbd, 0x3fefc8d8f02563a8, 0x3fbda7e759a8f274), // 1.4546923960242417
    (0xbffa5ae97a85eb68, 0xbfefe81aa445ab30, 0xbfb38a03daec0bf4), // -1.6471953187999251
    (0x3ff1a23ae6d055b0, 0x3fec8c9568ad67ff, 0x3fdce8f006a66e69), // 1.1021069542087893
    (0xbffc7971939c77f5, 0xbfef4dfb9301b65e, 0xbfca8a0cea2fb626), // -1.7796493307173453
    (0x3feb600000000000, 0x3fe827f6d2325578, 0x3fe4fcd8091b8f24), // 0.85546875
    (0xbfeb600000000000, 0xbfe827f6d2325578, 0x3fe4fcd8091b8f24), // -0.85546875
    (0x3ff921fb54442d18, 0x3ff0000000000000, 0x3c91a62633145c07), // 1.5707963267948966
    (0xbff921fb54442d18, 0xbff0000000000000, 0x3c91a62633145c07), // -1.5707963267948966
    (0x3ff999999999999a, 0x3feffc81c7e042c5, 0xbf9de67ac55f1633), // 1.6000000000000001
    (0x3ff7333333333333, 0x3fefc44e08da43dc, 0x3fbed944fd82a112), // 1.45
    (0x400368fcffffffff, 0x3fe4fcda0ad3a77d, 0xbfe827f513dbe3a0), // 2.4262638092041011
    // Reduced: quadrants 0-3 (n = round(2x/pi) mod 4), both signs.
    (0x402a019bbcd520e0, 0x3fdb12afba5e9f72, 0x3fecfef4786d1f5a), // 13.003141308800366
    (0xc016d6372b74a64c, 0x3fe16026f69f05d6, 0x3feadf2848d2943a), // -5.7091948308894409
    (0x402a0d442b923fec, 0x3fdc62e4b449081c, 0x3fecae2242a12f10), // 13.025910722353693
    (0xc039ae91a23f9cc1, 0xbfe0b40b830eb586, 0x3feb4b7060a7b967), // -25.681909695177414
    (0x40321855398019e2, 0xbfe5eaef12f9c987, 0x3fe750c69d0fa011), // 18.095050424360927
    (0x4040a30f8b0c2aee, 0x3feeb07cd8ecf6e1, 0xbfd220e3de4cd983), // 33.273911839429147
    (0xc02acbabed9589b3, 0xbfe7a5022aa06a30, 0x3fe58ff59fcf40c3), // -13.397796082023751
    (0x402b1a4950b6603a, 0x3feaaa076e8b93b3, 0x3fe1b1426eff26bb), // 13.55134060121792
    (0xc03508e487208c9b, 0xbfea25ea1ae65436, 0xbfe27253bb5d2494), // -21.034737058111755
    (0x4044018f700bd5e3, 0x3fe794ea44ee4d8a, 0xbfe5a18e2f4124db), // 40.012189870623637
    (0x40234030208c786f, 0xbfc980eb0f45dd1c, 0xbfef5bbebc086cd1), // 9.6253671809647283
    (0xc0441b1782ca6375, 0xbfe2d3fae008a02f, 0xbfe9dff21b1bd2df), // -40.211654995749008
    (0x404174b1b476ee12, 0xbfd631ebc1314e2a, 0xbfee039b3e9559a8), // 34.911673124381323
    (0xc04439201d2c902c, 0xbfd897cdbc959479, 0xbfed8b0a4ee77050), // -40.446292540320741
    (0x404182f5266b7fb0, 0xbfdcbb8e9a8d8f0f, 0xbfec9807277f4e71), // 35.023106386651648
    (0x4031d3c12e5cb481, 0xbfeb4eb18f236f75, 0x3fe0aeb8da8c9ce4), // 17.827166459687309
    (0xc024d91dc2d6bf7c, 0x3feaea211f591e4f, 0xbfe14f233e704e29), // -10.424055184091905
    (0x4037f6bf278bae90, 0xbfed733a0cd16594, 0x3fd9090847907830), // 23.963854285814307
    (0xc037cdc98f190c87, 0x3fef117693ec597d, 0x3fcea9e0f192ce1f), // -23.803856795897925
    (0x4024ef7ebeb3f596, 0xbfeba52a93f4b53b, 0xbfe01dd7d2281d7c), // 10.467763862102213
    (0x400368fd00000000, 0x3fe4fcda0ad3a77a, 0xbfe827f513dbe3a2), // 2.4262638092041016
    (0x4004000000000000, 0x3fe326af0dcfcab1, 0xbfe9a2f7ef858b7d), // 2.5
    (0x400921fb54442d18, 0x3ca1a62633145c07, 0xbff0000000000000), // 3.1415926535897931
    (0x401921fb54442d18, 0xbcb1a62633145c07, 0x3ff0000000000000), // 6.2831853071795862
    (0x4012d97c7f3321d2, 0xbff0000000000000, 0xbcaa79394c9e8a0a), // 4.7123889803846897
    (0xc008000000000000, 0xbfc210386db6d55b, 0xbfefae04be85e5d2), // -3
    (0x4059000000000000, 0xbfe03425b78c4db8, 0x3feb981dbf665fdf), // 100
    (0xc059000000000000, 0x3fe03425b78c4db8, 0x3feb981dbf665fdf), // -100
    (0x40f86a0000000000, 0x3fa24daa9c527e96, 0xbfeffac3841b3da7), // 100000
    (0x4197d78400000000, 0x3fedcffca623a20b, 0xbfd741b388a8c029), // 100000000
    (0x419921fafc000000, 0x3fb34aaca31e25ba, 0xbfefe8b4cf14ed14), // 105414335
    (0xc166e36000000000, 0xbfed329b584a11f0, 0xbfda30f55cd80035), // -12000000
    (0x4011a68b2dbae9bb, 0xbfee92b9854c8609, 0xbfd2e5de848c7233), // 4.4126402993519447
    (0x4016ac12019877a2, 0xbfe2776efd6ec0a0, 0x3fea224f21d4e606), // 5.6680374383267083
    (0x400036c1325bd18b, 0x3fecbb2b5a9622ed, 0xbfdc2df8d19d1aa2), // 2.0267356809874335
    (0x401877492c6dfef3, 0xbfc53d01f36a1546, 0x3fef8e724f77938a), // 6.1164900724540869
    (0x40137df1f65409ed, 0xbfef96935f95cffe, 0x3fc4781698b765ca), // 4.8729933251183697
    (0x4017055f7bc32564, 0xbfe01ebf681b1d5d, 0x3feba4a38c625bd4), // 5.7552470529420567
    (0x3fe239d889c8fac7, 0x3fe141a3afd14f5a, 0x3feaf2caa90af590), // 0.56956126128337636
    (0x3fb4f9f792651c0c, 0x3fb4f3f5c757ba2f, 0x3fefe483c40196d8), // 0.081939194909054602
    // Fallback: |x| < 2^-27 and |x| >= 105414336 (high word 0x419921fb).
    (0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000), // 0
    (0x8000000000000000, 0x8000000000000000, 0x3ff0000000000000), // -0
    (0x3e112e0be826d695, 0x3e112e0be826d695, 0x3ff0000000000000), // 1.0000000000000001e-09
    (0xbe112e0be826d695, 0xbe112e0be826d695, 0x3ff0000000000000), // -1.0000000000000001e-09
    (0x0000000000000001, 0x0000000000000001, 0x3ff0000000000000), // 4.9406564584124654e-324
    (0x419921fb00000000, 0xbfe98c2ea3441c6b, 0xbfe3450a2c59b604), // 105414336
    (0x419921fb38000000, 0xbfe694fde498005a, 0x3fe6ac38f1ff7755), // 105414350
    (0xc1cdcd6500000000, 0xbfe1778cae83c69b, 0x3feacff8c7364234), // -1000000000
    (0x4480f0cf064dd592, 0xbfeb453ab76bf397, 0x3fe0be2cef01c8f4), // 1e+22
    (0x7e37e43c8800759c, 0xbfea2c16b010e385, 0xbfe2699022adc4c1), // 1.0000000000000001e+300
];
