"""A seeded corpus of `trace` requests, pinned byte for byte.

`corpus` builds REQUESTS command lines from one seeded random.Random: trains of 0 to 40
elements of all six kinds, attenuators up to 60 nepers, pure beams of all three forms
(angles and Jones with amplitudes from 1e-100 to 1e100, pure Stokes with fluxes from 1e-100
to 1e100), one beam in five a mixed Stokes beam, and one request in seven with a
`--tolerance` of -1, 1e-9, 0.5 or 1 (an input error, exit 2).  DIGESTS holds, per request,
the first 16 hex digits of the sha256 of its exit code, stdout and stderr, recorded at
commit 35a8769.  A change to the pure or mixed step that moves one printed digit, one
message or one exit code moves one of them.  No step here has a gain ||F o|| below e^-60,
so none reaches the norm that `_step` takes without squares.
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
6272d631e60c133e 853042eca76dad45 f56f4ee5547248c9 d9d45d09547ed675
a1030a3dfa2a086e dd81b3eb4110d9fb 6d2bf8e949a88aa5 4d53e61f900c70d4
a8fed30196b75aca 6b38cbe1efc53b07 b3dd3098529aaaff e1a35289038081bc
aa3a44fe75f80cc8 acd036dfaa14d6f6 8fbc8fd1fdb4fa26 62acbc94dff3317f
a3fbc910abfa095d 777846f117c96733 e59ca444c3b4784d 47521d3b43d5d5aa
c29d977be6d3d244 332769abdad5f512 a890cb9fa3dbde40 263ff2b9f0e44c07
01a47af7d561fa68 e6e1def113de88ce a20b51a4bf0b38be c29d977be6d3d244
105f5bf2e21c9bd2 c58d864f788e2770 d6feaae9b50f97aa c003a6a6c4d1a46a
235b7e45627534c5 b21dcc86d662d5b1 d45a589fa1bde168 920119565294a976
ba34d0377ecf99c7 c29d977be6d3d244 b8f8ca6b4419d603 908e9dea09d5ed9a
b651055f1e8a7f3d d6f5ebbb1057a6d2 423585f023aa77ab 400cdea87534f8cb
42f643b9ae367cf4 31b3458b96e79c67 71ca9ae12752a414 d1072a83825d68dc
8f60754341e5a6cd 81052270c4d798e8 c29d977be6d3d244 8788cb777d214dd5
0f5b1b7869887d11 928e675a646388ab 9bae304d8a428599 607e38985a44217f
23239a184832efda 5bc7011ff4d199cb da060b9baacc13ea 6104dd010e33bac3
e23d0817708ce675 0b08ee59f9fa8f58 73b0afb6dc8593c1 c222bebce3ecd33e
4d1fbb6a34614afd 1fb7f917b649cb7c 77678f6289e3c061 e38d337349cc4e5d
72ef3d95eb177b57 96d9420e18964f52 090e33dd4cfaef54 ed2cf4b0419dd3bc
7798eee8fdb285b3 3c680e90d71e1f7a c89a1be120bb7eea cf967622fa98e975
c7f2c4f4ead5396e 6d0537b1caf1f54e ae9fd03367972ad0 f5591abf84af3b63
c34a5758743010db 5bab3ef2c8e3326b 9e9460d4cc7d4c74 62171baa5b2c6afd
b8bbb6c7549f3f1e 58f33a8a6082f1ee 3f6afc3f6b513280 b8f6fe5c208849be
bbd11f9d1b188650 8e7f8645cf967fc0 ea3b57a8354d6990 b0955f7b1aada886
ce448acb4a42a012 64e1a37fdd158203 bdde473bc57fb265 599ebd31fd10d305
b1a72dcc65fa5373 cae1b5d81496c8de 1790460511587fca 282acae960f050e1
0ed7b3e99e95bab9 57ab6c9bfb3dd257 2b5faff92c234ddd 7dc8d0ce2ccd8eb9
eb3039a7ffa2e07f 2c24ad707f64f0d3 86e2e5332a3ec108 feea6176802f231a
419baf57de35d3e7 7777c614c2bc775a 7a4a45d8e1584769 15ba08638b6ad848
b3a96b285e63f522 52144d96b49056dc 33fa7a163415635a 1d3b5d949de0ba92
2d9588e6670ae04f 70327fed710ff5bf 62515595963ef6f6 7a2f7c5ed0eacec2
130b4acaab5efbc5 ded514a87cb6c81a 81c78241fc510641 6b21bee17a1a5906
bee5fd8e8fb538ea 07baee40c625826f 7e488d89a252b8b2 46319c853ba83c81
e3920f72682d55ab 85f90951423bba97 3d9ba5076b47fa76 8977fc553171d9ed
ac0c08f1b6d3468c fefa8cfccd89d642 2a086ae6b91fd803 89777235a5a81c8d
15351097ec10ab64 6e099ed2f7a7e852 a47626c91984688b a41e73dfeb9b1fbc
a0276b81a916989a 2c4097d5864dbe91 9935800d0b03dc54 c29d977be6d3d244
7a1399fc24d36b2a bbccd4a233758054 48edf3aff51a0f7e 1de169f00c600680
ae8966aa212f88f7 716724f242db7f19 f2449db4107186ee d931ec42448a949c
b9edc0d496d0a530 662a7897e7fe4d2c bd772eeff1608459 e4f52c8f42acbd33
b120472dc22b7840 f03dd3e53bee1497 a1b640b108c6594b c29d977be6d3d244
ec40030186b79cc3 ff52aaabe455b84c cba27b54312c14f8 9bea5ba2796d29a3
3eb2ef4cfe39e674 1d697d4403f7c6cc ef5c9f91530cfd78 37540d3b4bab6460
bdaf106d6039fa9c d7f503ce3e54b40d c94a49024f985b2c 63e4440c439ca4ec
bab847befea7cdca d6b5c22f76a041b4 980ef6b141577c1e 3011054e514a001f
379c9a0dbbc7e2d1 72bff7a157def7e0 923de8b58785bb3b ee5ece598eb0d491
41e95dfadcc88e06 fb0bd9a4524a5882 620fb2a0be8232e0 b064ac2285116a77
4c0d296f4b754f82 c29d977be6d3d244 25fc2daf40362985 d130cb6de5d4f15f
a79dafee96ed60fa f36602c7ab343d4c bf6f2d7261622287 ecc3558a9d84f38c
5d19ca15b166b615 dcf10a83009060cc 33cd1b15fa048eff 0617f2c9e493246d
7a159d3908ed6dbc 736305beeef49507 c8b8cfeac96d124b c7d7f4ca5fab1cb9
0a45c31cead37a42 2364781c9e1b2b7f 451b9daaeb6726f4 e9871356a44cd050
ca703eb96e60eeca be25b55f18428dec 36b0a641335fc30c c29d977be6d3d244
9f121d112349b2bf e430aa5cfef2d8c5 6e8f4a179a57f3bd c4425d1d27d92ef4
a9ea4500be83f516 0e2cd8a3de15e22c f7377f7d7dd51a56 f974499a925b7e09
f6bfc8b023b0e664 dd9083ccdd9c37cd ce710c5a209aa611 be36b4d7cec4f0f4
913ad10efd775552 762e825d0311c670 a2dd8cf35ea21008 25731d9730485ab0
6958cc40adfb0f37 e64bd2ae144b150a b5bc12e99768dd7c 2769efa5d965fca4
2ed4054daf14b1a6 655c9fa23d7a4e7b 30d7e3358394fa6b d9aa93376ec9198b
f94920c8b82ca455 99b06fb441a87319 86fdc36e4d5b5efe 010a47b66c0e79ab
c29d977be6d3d244 fb48b166e799c02d 1674d956228c4972 5dbd419490d5c694
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
