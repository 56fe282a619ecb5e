"""A seeded corpus of `trace` requests, pinned byte for byte.

`corpus` builds REQUESTS command lines from one seeded random.Random: trains of 0 to 40
elements of all six kinds, attenuators up to 60 nepers, pure beams of all three forms
(angles and Jones with amplitudes from 1e-100 to 1e100, pure Stokes with fluxes from 1e-100
to 1e100), one beam in five a mixed Stokes beam, and one request in seven with a
`--tolerance` of -1, 1e-9, 0.5 or 1 (an input error, exit 2).  DIGESTS holds, per request,
the first 16 hex digits of the sha256 of its exit code, stdout and stderr, recorded at
commit 35a8769 and re-recorded when the pure trace came to read the train's prefix
products: that moved the last digits of 180 of the 188 pure-beam requests, each row's
Stokes cells within 1.5 n eps s0 of the old ones (n the train's length), and left every
exit code, message and mixed-beam row as it was.  A change to the pure or mixed step that
moves one printed digit, one message or one exit code moves one of them.  No step here has
a gain ||F o|| below e^-60, so none reaches the norm that `_step` takes without squares.
"""

import contextlib
import hashlib
import io
import json
import math
import random

from polspin.cli import main

REQUESTS = 240
TWO_PI = 2.0 * math.pi


def element(rng):
    u, kind = rng.uniform, rng.randrange(6)
    if kind == 0:
        return f"shifter d1={u(-7, 7)!r} d2={u(-7, 7)!r}"
    if kind == 1:
        return f"rotate alpha={u(-7, 7)!r}"
    if kind == 2:
        return f"gyro d1={u(-7, 7)!r} d2={u(-7, 7)!r}"
    if kind in (3, 4):
        return f"{('qwp', 'hwp')[kind - 3]} axis={u(-7, 7)!r}"
    top = rng.choice((0.5, 5.0, 60.0))
    return f"atten e1={u(0, top)!r} e2={u(0, top)!r}"


def beam(rng):
    scale, form = 10.0 ** rng.uniform(-100, 100), rng.randrange(5)
    if form == 0:
        return {"angles": {"theta": rng.uniform(0, math.pi), "phi": rng.uniform(0, TWO_PI),
                           "chi": rng.uniform(0, TWO_PI), "amp": scale}}
    if form == 1:
        return {"jones": {"a1": scale * rng.uniform(0, 2), "a2": scale * rng.uniform(0, 2),
                          "phi1": rng.uniform(0, TWO_PI), "phi2": rng.uniform(0, TWO_PI)}}
    z, p = rng.uniform(-1, 1), rng.uniform(0, TWO_PI)
    rho, dop = math.sqrt(1 - z * z), 1.0 if form < 4 else rng.uniform(0.2, 0.95)
    direction = rho * math.cos(p), rho * math.sin(p), z
    return {"stokes": [scale] + [scale * dop * x for x in direction]}


def corpus():
    """(train text, argv) per request; the train file is t.pol in the working directory."""
    rng = random.Random(2501)
    for _ in range(REQUESTS):
        text = "".join(element(rng) + "\n" for _ in range(rng.randrange(41)))
        argv = ["trace", "t.pol", json.dumps(beam(rng))]
        if rng.randrange(7) == 0:
            argv.append("--tolerance=" + rng.choice(("-1", "1e-9", "0.5", "1")))
        yield text, argv


DIGESTS = """
a2e8853b30f94432 fbf5f66e1deaff0b f56f4ee5547248c9 d9d45d09547ed675
aa4ac7bb2122ecc6 a3fe62c41fcdaf75 2bfc35c6241a5496 fb2914260912f716
e92a5f239e2978c0 ac6f66aded64e655 1b355826216b2981 c73a5c5d3d52fbd0
aa3a44fe75f80cc8 d72c03592540401d 1a813ef3e53af4c1 25a13ad7a10468ca
2f71a1f8648cc6cb f1721e167339cd2e 897f22af21df2377 81052024add1e30f
c29d977be6d3d244 9f590bb65a25a5f9 a890cb9fa3dbde40 263ff2b9f0e44c07
2923e8d8f36dcfa2 a824ccba6d1ea414 a20b51a4bf0b38be c29d977be6d3d244
a1fcbc8110b42bec 6eebbaef7ea53f33 d6feaae9b50f97aa 29b037fc21bcda1e
205e8feec3cada3f fc73e38ca8726f7e 0f5fbe181aabf0f7 1f43a82025ed1bd2
ba34d0377ecf99c7 c29d977be6d3d244 b8f8ca6b4419d603 0250f9f70ad4396e
5bf8c9a5cbb1b308 e3664e79bfe34001 423585f023aa77ab 6b0b463f4de91cfc
f5e0e93413ec5a8b 66030a0aa1db0933 71ca9ae12752a414 1ab09f05d298caa5
8f60754341e5a6cd 81052270c4d798e8 c29d977be6d3d244 156bb3b39cd01b6e
2fb78cdfdb061664 e917269b680cf4df 9bae304d8a428599 c571895b4e08fa6a
35a5134085a98fed 5bc7011ff4d199cb 44aed61e62e8436c d3a5c87be83eb17e
9d4f0a548f37a68d 19757323d851b8a0 73b0afb6dc8593c1 c222bebce3ecd33e
62267b746331f3da de37e1853c2e129e f60bf018ccf73249 d9006ae4f1c17786
cf07671344c462c3 fc83ec5a7ed657fb 9cbbc18392ab9e95 04ab9ddf2abec2aa
7c9426f489e2c432 827d50dd7cfc73aa c89a1be120bb7eea cf967622fa98e975
29d5ed9556aacf62 227d378430f9fb6b 457642be8f9a7a4a 770f6a398d88b723
ebdb77e8b05e9023 14b4a858fe796d6d 9e9460d4cc7d4c74 d45237847605f891
1840413a6a0b3ee2 119206182eddbd61 f4046227081c3725 937dac1adb73226b
6634cd26fca37c25 44626ec38ed8e5e5 17bbd6f9a55f241a d3d9f47a68962fa9
403ee6ec46d63117 64e1a37fdd158203 862f48daad5100f0 599ebd31fd10d305
b1a72dcc65fa5373 0bb8dfc1d8980aa9 a05a8a8de847d2cd 4764a6de109be1b1
0b18aa75bbefc549 09ddd7e307030c2f c8ea6ed98bfd953a bd8785a934e579ea
b89a3b5605ac096c 0d50c3f068b71fe9 6b33e62f58c42b18 feea6176802f231a
419baf57de35d3e7 7777c614c2bc775a c70f61aec653e25b 39a7c70fc859f659
4f13d1923cccac0a 1d4895f27a674ab7 33fa7a163415635a 573016f78b8c54ad
2d9588e6670ae04f 5f97d264251ce69c 62515595963ef6f6 1f666d78f499294a
5d16903e6a438a81 ceb87d82b5048026 b30db9d910edb009 171e13ef8934c17e
38201c970547ef54 07baee40c625826f 59a68bc056a3b6e2 d50de79999c6cdbf
92adc78e44b6062a a6c7e83bcab2954e 5d9b7817e18f83fe a9e7dddd270b398f
56d8cdbdd9249e99 b9dceb23f92382c5 2a086ae6b91fd803 fafcd1f3d698119a
15351097ec10ab64 6e099ed2f7a7e852 c95a0d5398100a97 a41e73dfeb9b1fbc
4fe4c9e4acc197f3 e86f34033f2e1661 9d6957851ef4f0db c29d977be6d3d244
6fad8efae662d0ba e2eaf95fd2da64f1 a25eef991def0b2c 5ee7ab3197f52689
ae8966aa212f88f7 c878123d902c1c41 d83e2c016e53d721 468d7b5f67157461
b9edc0d496d0a530 662a7897e7fe4d2c e82983ce0a48c6be 5ee64b9ccdf10607
a5d671d50ee09b26 938a9df70d0eb128 dd05b004cdf192c4 c29d977be6d3d244
ec40030186b79cc3 0b8233b022737000 de9345e3ce504582 a1919c2980d3800d
50667171351c6167 4787adb71cdcb622 d24e130c8e48340a 4d193c2a2fac4b71
90456bee36db3913 b2f2c9750aadc8b4 c94a49024f985b2c 8711b7bf7c5b8c1c
bab847befea7cdca 024e912591c2e68e 82973b7825c2d5be d13644064a0f25f5
7bae1183b9b8a15f 6d2f7b36f1163842 fcd795be6f056688 ab74668844125a71
03fec329707c9fe7 ee94fd6738b00d60 620fb2a0be8232e0 07fab850ceb39404
4c0d296f4b754f82 c29d977be6d3d244 3d2c554298b05271 1b9164c3807a9aa5
e761956e0ad7000f 129087bfcb685197 c76e4c0772dd9694 a4dccc2709b8a467
5d19ca15b166b615 05a0599aea4ff9d6 3e6880cda07e4ddb de9625c2e5a3556b
7a159d3908ed6dbc c67e5a773b333412 da783d6dead2032e eea87594f7de2624
a8bbf640dc985cb0 2364781c9e1b2b7f 1432186d6dddc07e 543ccd2381b1a03f
8a72470bddd738fc 9b172c18d1131fe2 5358054356b1ccc4 c29d977be6d3d244
b8c6d42cd6b33142 e430aa5cfef2d8c5 7ad566507c143ee7 2d289ba9fda65d1e
2759eae228fcacf6 707e6ef020f40d3e 2d5b90a7eaf7a0a2 f3902d618d6b43c3
1cb2d28d26f3ec03 bec54cffd2d7c27f 9191a70612822cbf affc00a56472e388
ccee77f6ee040398 b4a942b6e3d3be90 a2dd8cf35ea21008 f252495362a156a3
8a9012bb017711be e64bd2ae144b150a 38439dd11fc647bf ed1279a7e7254a03
24e73be8dbde03f3 03e805382b9b169a a507ef33e3f46d2b d9aa93376ec9198b
7daa1166fc3757a8 ed523d7e18b2e5ac 8a6fd42197d536b3 f39d51a843f633f0
c29d977be6d3d244 393e0ae55150c805 1674d956228c4972 5dbd419490d5c694
""".split()


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()[:16]


def test_trace_corpus_prints_the_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = []
    for text, argv in corpus():
        (tmp_path / "t.pol").write_text(text)
        got.append(digest(argv))
    moved = [i for i, (a, b) in enumerate(zip(got, DIGESTS)) if a != b]
    assert (moved, len(got)) == ([], len(DIGESTS))
