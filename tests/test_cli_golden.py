"""Golden transcript of CLI requests on the reference specs.

Each request's exit code and stdout are hashed together and compared with
hashes recorded before the polynomial kernel moved its inner loops to
plain integers.  The seven ``verify`` rows were recorded again when the
report went to one record per polynomial (its gammas listed, its witness
written once, ``"pass": null`` for an uncertified value and an
``uncertified`` count in the summary); flattened to one (inputs, gamma,
witness, pass) row per gamma, each new report equals the old one.  Any
later change to the arithmetic
that alters an output byte fails here.  When a change to the output is
intended, regenerate the table by running this file as a script and say
why in CHANGES.md.

Besides spec-a and spec-b the list uses F101-a, spec-a's pairs over F_101
with lambdas 3 and 7, so that prime-field arithmetic is covered too.  A
shorter set of requests (genseq, eval, expand, monoidal, verify and the
ladders in ``EXTRA_LADDERS``) runs on spec-a's pairs over F_3 (lambdas 2
and 1) and F_5, and on Qfrac-a: spec-a's pairs over Q with lambdas 3/7
and -5/2 and delta_1 = 1 + (2/3)u, whose T_2 and T_3 have the common
denominators 7 and 686.  These rows were recorded before the T-adic
expansion moved to integer rows; the two Qfrac-a ladders (t = 5, 7,
downstairs units that the dual sequences once refused) were added when
the upstairs units became delta^{n_{i,0}} * delta_i(x^t * delta, y).

The eight ``dual`` rows with an upstairs sequence (a and F101-a at
t = 5, 7, b at every t) were recorded again when the dual table dropped
its ``T_equal`` column and its row k + 1, which re-checked T'_i against
the substituted T_i; every other key of each report is unchanged.

The ``delta=`` rows run ladder and classify with the upstairs units in
``DELTAS`` (t = 5, 7, on spec-a and F101-a), and the ``--format text``
rows render three spec-a requests as text; both were recorded before the
CLI dropped its report copy and the ladder wrote x_i^t as X^t.  With
delta = 1 + x + x^2 y the upstairs T'_2 is not monic in y, so those rows
pin the exit-64 message.

The ``q1`` rows run ``monoidal`` and ``blowup --steps 7`` on
(2,1),(1,2),(3,2) with trivial units, over Q and over F_101 (``F101-q1``):
the chain first walks the chunk of a pair with q = 1.  They were recorded
while ``monoidal`` still started its chain at (u, H_1) through a
correction map.

Every ``blowup`` and ``monoidal`` row (the ``--format text`` one
included) was recorded again when a chart stopped being rendered as its
composed forward map: each chart now writes its step word and the
exponent vectors of its parameters, and each report writes the chain's
factor polynomials once.  With ``"forward"``, ``"steps"``, ``"params"``
and ``"factors"`` removed, each new report equals the old one; every
other row kept its hash.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys
import tempfile

from jumpseq.cli import main

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

#: extra ``verify`` arguments per spec; spec-b runs without samples
VERIFY_ARGS = {"a": ["--samples", "10", "--seed", "5"], "b": [],
               "F101-a": ["--samples", "10", "--seed", "5"]}

#: a fixed polynomial for eval/expand: v^2 - u^3 + 2uv + 5u^2v^3
POLY = {"vars": ["u", "v"], "terms": [
    {"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "-1"},
    {"e": [1, 1], "c": "2"}, {"e": [2, 3], "c": "5"}]}

#: specs that get the shorter set of requests, and their ladder exponents
EXTRA_LADDERS = {"F3-a": (5,), "F5-a": (7,), "Qfrac-a": (5, 7)}

#: non-trivial upstairs units delta for ladder/classify on spec-a and F101-a
DELTAS = {
    "1+x": {"vars": ["x", "y"], "terms": [{"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": "1"}]},
    "1+x+x^2y": {"vars": ["x", "y"], "terms": [
        {"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": "1"}, {"e": [2, 1], "c": "1"}]},
}

#: (2,1),(1,2),(3,2) with trivial units: its first pair has q = 1
Q1_SPEC = {"field": {"kind": "rationals"}, "pairs": [[2, 1], [1, 2], [3, 2]],
           "lambdas": ["1", "1", "1"], "units": ["1", "1", "1"], "mode": "nondiscrete"}

#: requests on spec-a rendered with ``--format text``
TEXT_REQUESTS = {"monoidal a": ["monoidal"], "ladder a t=5": ["ladder"],
                 "verify a": ["verify"] + VERIFY_ARGS["a"]}

GOLDEN = {
    'genseq a': '9410f26137acc73c70f57a4438ed9111ea5f371e534f99e9879eef754b34dbeb',
    'blowup a --steps 3': 'd4b7957e548f3cdf10fc67e3364445384d7333989ceb9d50f9caacc634408e6a',
    'eval a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand a poly': 'd8926174cb19f79f8a6ad5d577edcb3dc4bb1a7a516c222f40c9d473a06b8052',
    'verify a': 'e29d28b5fabfbdc0906017c673b1f533789038a1a61ab0d97ad8101001fdb533',
    'monoidal a': '5cb603814a6d56a76d66d6529cfd77542fb27a9748d02e9f640d15d00332aef3',
    'blowup a --steps 7': 'd034032c0d063a57e021c7ad31385afb6ccfc07045982ee3533f36de55df43c8',
    'ladder a t=2': '796e1dd661b493a06d2c64e76f1512b9c97a2a891e490abb47303b0bc3a1090e',
    'classify a t=2': '40da0b418754481ca597b49d61d921f914807e935f7a5b640a56ef4db4407b36',
    'dual a t=2': 'e95cea1a8af5bc2e619494d198bbd65c31417a6ae4e9920c0b5fad347bee2f12',
    'ladder a t=3': '7e1c6e845cd818ceab963302a8adaf66032839146fe61cc010fd19d8fce7ed9c',
    'classify a t=3': '8f3a156ba51b0375650836270788391760aa29fa845a112d6bd00b22736896d4',
    'dual a t=3': '1087d2a7b933ecc25199bc4b5803461b8fefd6a3b10632ec0aef67f2d3bc4c54',
    'ladder a t=5': '7ef337af3f44c23533bd3941cd4192cb54ce522f64224d96fd64a7d042d333f7',
    'classify a t=5': '606ec62ce8b3bafc02d10995cf0bf7ca678f4e5184280aa2149707030d873ba3',
    'dual a t=5': 'ffa799277b97dc34baf0e1514cb5ba5ccb23778fd0c375f8488dbc6c5ed8b395',
    'ladder a t=7': 'c61f885e02e03e479724471ad2f13aa6aa7ae3fedb120b98b7d53a7e92558900',
    'classify a t=7': '25ee36c07eb4379d6a54589bab3bb71d788cf6b3395ef4ce1d6571e2626d5d67',
    'dual a t=7': '13e5b80a0bfb660f24f4a401b9751bc82bc20f2eb5ce62815d3cab3154b4d929',
    'ladder a t=5 delta=1+x': '7ef337af3f44c23533bd3941cd4192cb54ce522f64224d96fd64a7d042d333f7',
    'classify a t=5 delta=1+x': '606ec62ce8b3bafc02d10995cf0bf7ca678f4e5184280aa2149707030d873ba3',
    'ladder a t=7 delta=1+x': 'c61f885e02e03e479724471ad2f13aa6aa7ae3fedb120b98b7d53a7e92558900',
    'classify a t=7 delta=1+x': '25ee36c07eb4379d6a54589bab3bb71d788cf6b3395ef4ce1d6571e2626d5d67',
    'ladder a t=5 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'classify a t=5 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'ladder a t=7 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'classify a t=7 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'genseq b': '1ee10f3280a3aaa53c12bef83d934d32c092f4c5c1930900072639601435ac1c',
    'blowup b --steps 3': 'c846624add40fbf5617b0a4bc5dc27e55c29198398bddfd681028edab17d064a',
    'eval b poly': 'ab39cc11761e9b79411827d08ebfb35641b03eff7ba02284b57d508d7c8138a7',
    'expand b poly': 'e41428eed15c816c7c035cd072abd97791405c58b0e2b4ae179a91faf42723c9',
    'verify b': '87fb3a172afe2f28ac9eb788e68935c0f9534a9927849a115aaecc2e1a7af738',
    'ladder b t=2': '721d6a26819de8c96b3dfaff7574f68f63b5a45fc3777928f58f532eaa623b7e',
    'classify b t=2': '3e83029e48e233760b738a6b3f93e5fbda07e528e80e7e9ac00a10d205e4de1c',
    'dual b t=2': '1b93a003cd3df4dc067fbbe8f7b6fc1a1e45f16b9348e632b75f02b61411af07',
    'ladder b t=3': '5e1726df65f100fce47a64779c200c25f057ddc0e5afb1ed757617ba4ddb3a6e',
    'classify b t=3': '38406212d7be613fd8e1b098c64a5cae8ed4e1c685ebb61d6e9f897add4bd8b5',
    'dual b t=3': 'd8335c060da005fb86090bce54a4d6d14cc69923dbf60b3a4832f85f39cf2ec3',
    'ladder b t=5': 'eca05d81ae60e8c3c3e982c98fc986d02ffa338db12d2ccb82fc90740ee5616d',
    'classify b t=5': 'c1a3ae429f9e377cbe4cb51cfc1e8b066a0a9a4f3ed2dca568cb4d9e83ec1e34',
    'dual b t=5': '1f65747b702e496a6f47d1f9393124a58966bc10b6eb36bc3a324f11c3d02fe2',
    'ladder b t=7': 'dc0d0c6fd71c3c2725290baa39f6cb049606a77119e05f7038e4e826d267c878',
    'classify b t=7': '7a05d1112495095d1c69d6a4e415545b87330d1fd4cef9d761e9789693018c31',
    'dual b t=7': '930aa138c79d417e979a0c97bb66c397451c88b165b6a4b69b160886581ac46b',
    'genseq F101-a': 'e396de12aedcd50b1ca975b2bbedd8f6284b8c1c4e400b0c6e98da8d606ae7ab',
    'blowup F101-a --steps 3': 'be70e6aad6bfbaaa6fbbf25e7b3064903f74e98c3f09ab574f466a5bb0d95088',
    'eval F101-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand F101-a poly': '57c59a8301865a9edb3a422ac8d63f086117cff4a5547a4d1684d0ef8a69ddfd',
    'verify F101-a': 'c2f2bfb683266ce80e042a6e948b3a3792b953117037ee056c6a5ea6ce11964c',
    'monoidal F101-a': '0309b92f5e9c6d1b66308ba04d2b854c54ad11869b0c4f42d511cfe9cf683cfe',
    'blowup F101-a --steps 7': 'a684aaab9ba38fba2012abc9bd7fbc24d1efd681777b61ac2c9a5c9a221cb7b7',
    'ladder F101-a t=2': '796e1dd661b493a06d2c64e76f1512b9c97a2a891e490abb47303b0bc3a1090e',
    'classify F101-a t=2': '40da0b418754481ca597b49d61d921f914807e935f7a5b640a56ef4db4407b36',
    'dual F101-a t=2': 'e95cea1a8af5bc2e619494d198bbd65c31417a6ae4e9920c0b5fad347bee2f12',
    'ladder F101-a t=3': '7e1c6e845cd818ceab963302a8adaf66032839146fe61cc010fd19d8fce7ed9c',
    'classify F101-a t=3': '8f3a156ba51b0375650836270788391760aa29fa845a112d6bd00b22736896d4',
    'dual F101-a t=3': '1087d2a7b933ecc25199bc4b5803461b8fefd6a3b10632ec0aef67f2d3bc4c54',
    'ladder F101-a t=5': '770adf314a83b4451e7122717d66f6fda8e453ea8bf1b31d7feb0eae9b87ddd3',
    'classify F101-a t=5': 'a98811a0904b88bdf3032361096c777ca9eb216e464d2ae33baf89bab52c19bd',
    'dual F101-a t=5': 'ffa799277b97dc34baf0e1514cb5ba5ccb23778fd0c375f8488dbc6c5ed8b395',
    'ladder F101-a t=7': '223c7544564d231ccf34c72b02ce4e7e3c6fbce8ad6a85de2077493c45763727',
    'classify F101-a t=7': '19307fa52f924e4c763e1322e32a649510a9d8f23a729a77f0698b2ef388eded',
    'dual F101-a t=7': '13e5b80a0bfb660f24f4a401b9751bc82bc20f2eb5ce62815d3cab3154b4d929',
    'ladder F101-a t=5 delta=1+x': '770adf314a83b4451e7122717d66f6fda8e453ea8bf1b31d7feb0eae9b87ddd3',
    'classify F101-a t=5 delta=1+x': 'a98811a0904b88bdf3032361096c777ca9eb216e464d2ae33baf89bab52c19bd',
    'ladder F101-a t=7 delta=1+x': '223c7544564d231ccf34c72b02ce4e7e3c6fbce8ad6a85de2077493c45763727',
    'classify F101-a t=7 delta=1+x': '19307fa52f924e4c763e1322e32a649510a9d8f23a729a77f0698b2ef388eded',
    'ladder F101-a t=5 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'classify F101-a t=5 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'ladder F101-a t=7 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'classify F101-a t=7 delta=1+x+x^2y': '913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc',
    'genseq F3-a': '6416f6a37192a0734d903b3850a78da5f49a54ff9fdfc2f816d56cee6cedf15c',
    'eval F3-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand F3-a poly': '0d2abe3822e7c00c122ee8a6da6a8479547a78007c5c5c5993f6b9b31f255980',
    'monoidal F3-a': '21696b79eca0a041df8e6f0df9dc1833050bbe505d98435ec66018624d0f48fd',
    'verify F3-a --samples 5': 'eb415a412b307bb713bed8acce91a2d3a08cb5ede25619fb177ce30d7e340b9f',
    'ladder F3-a t=5': 'f1dff6c2d4bed8e17df2aaa34d2a29ee2c5aaf6c00d30fed39470c578bbf2c82',
    'genseq F5-a': 'c5ac568ea4a1cd85e0ec33281d1ed22bc043c61e0279b7ea483ccec22b95e0ee',
    'eval F5-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand F5-a poly': '25d5ff8320315b240fc6e618267927e6d1047bcdccd3d385ec51ffe11a812f7e',
    'monoidal F5-a': '4bbd5347476fbf2872ef81796ff1976fa990b2b705a4dec41603dc4c72a6ec08',
    'verify F5-a --samples 5': '95bbeb83bd0970b04270a7e7d4e78213631f4115eb6a5589a92da5aec45f877d',
    'ladder F5-a t=7': 'c61f885e02e03e479724471ad2f13aa6aa7ae3fedb120b98b7d53a7e92558900',
    'genseq Qfrac-a': '7c223216c6da99527dd9c884c0538cef3a48a130109de887b8c417a144e8dfd9',
    'eval Qfrac-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand Qfrac-a poly': '1b16c29a8aef7c2addd723a78c54bebd8c06f211b73afa76aaf449260a450209',
    'monoidal Qfrac-a': '5ee40bcf2bc6787102d8d6036bda2f2034f70a71a0d9ef1bf63143ba71c9e8da',
    'verify Qfrac-a --samples 5': '8346c69372985d215a03e086e3b47a7a6e48f5d75dc197423f8a5b33e50ae0c5',
    'ladder Qfrac-a t=5': 'f87a985477570f4540ddb13e0af068cf235115975a9e23064d7a90f2a78f3ef7',
    'ladder Qfrac-a t=7': '6e41de0b81c1562515e48d6dbdafac208f1e691c8743b7e9ff0baebde2172a3d',
    'monoidal q1': '69205a72b69db6636f9b1b67ed4938bca92c0f52b8cdcc6562ad5811b3074d28',
    'blowup q1 --steps 7': '9a7ddf6b66a95cd90d7cb7f270578fadf73640100d9cf7b84bd03cb9b37463bb',
    'monoidal F101-q1': 'ac625e3e8b5dfa0ac7fccca7c7b575206ef2e0e5ae28e8e5cd8fb282b4318751',
    'blowup F101-q1 --steps 7': 'aba357e425ac37ebac189a010c0a30587cb30fbb338f4cd42745e57afe6167cb',
    'monoidal a --format text': '58f1b15650cdc7976f1e987d3e9aea4b5a3d201adb565981a41066d2f60f45e1',
    'ladder a t=5 --format text': '88958696c50fdf79e4ba518ad7348944bd87cfda3a5cd8b17d745b9c566f6d6c',
    'verify a --format text': 'e3767847af9f8850c2f8fb30b033cd1c8c4819809d0c9785d01b5dcb97f139a1',
}


def _requests(tmp):
    """(label, argv) for every request; the labels hold no paths."""
    specs = {"a": json.loads((SPECS / "spec-a.json").read_text()),
             "b": json.loads((SPECS / "spec-b.json").read_text())}
    specs["F101-a"] = dict(specs["a"], field={"kind": "prime", "p": 101}, lambdas=["3", "7"])
    extra = {
        "F3-a": dict(specs["a"], field={"kind": "prime", "p": 3}, lambdas=["2", "1"]),
        "F5-a": dict(specs["a"], field={"kind": "prime", "p": 5}),
        "Qfrac-a": dict(specs["a"], lambdas=["3/7", "-5/2"], units=[
            {"vars": ["u", "v"], "terms": [{"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": "2/3"}]},
            "1"]),
    }
    poly = tmp / "poly.json"
    poly.write_text(json.dumps(POLY))
    reqs = []
    for name, spec in specs.items():
        path = tmp / ("spec-%s.json" % name)
        path.write_text(json.dumps(spec))
        reqs += [("genseq %s" % name, ["genseq", path]),
                 ("blowup %s --steps 3" % name, ["blowup", path, "--steps", "3"]),
                 ("eval %s poly" % name, ["eval", path, poly]),
                 ("expand %s poly" % name, ["expand", path, poly]),
                 ("verify %s" % name, ["verify", path] + VERIFY_ARGS[name])]
        if spec["mode"] == "nondiscrete":
            reqs += [("monoidal %s" % name, ["monoidal", path]),
                     ("blowup %s --steps 7" % name, ["blowup", path, "--steps", "7"])]
        for t in (2, 3, 5, 7):
            ext = tmp / ("ext-%s-%d.json" % (name, t))
            ext.write_text(json.dumps({"t": t, "delta": "1", "spec": spec}))
            for cmd in ("ladder", "classify", "dual"):
                reqs.append(("%s %s t=%d" % (cmd, name, t), [cmd, ext]))
        deltas = DELTAS.items() if name in ("a", "F101-a") else ()
        for (dname, delta), t in itertools.product(deltas, (5, 7)):
            ext = tmp / ("ext-%s-%d-%s.json" % (name, t, dname))
            ext.write_text(json.dumps({"t": t, "delta": delta, "spec": spec}))
            for cmd in ("ladder", "classify"):
                reqs.append(("%s %s t=%d delta=%s" % (cmd, name, t, dname), [cmd, ext]))
    for name, spec in extra.items():
        path = tmp / ("spec-%s.json" % name)
        path.write_text(json.dumps(spec))
        reqs += [("genseq %s" % name, ["genseq", path]),
                 ("eval %s poly" % name, ["eval", path, poly]),
                 ("expand %s poly" % name, ["expand", path, poly]),
                 ("monoidal %s" % name, ["monoidal", path]),
                 ("verify %s --samples 5" % name, ["verify", path, "--samples", "5"])]
        for t in EXTRA_LADDERS[name]:
            ext = tmp / ("ext-%s-%d.json" % (name, t))
            ext.write_text(json.dumps({"t": t, "delta": "1", "spec": spec}))
            reqs.append(("ladder %s t=%d" % (name, t), ["ladder", ext]))
    for name, spec in (("q1", Q1_SPEC),
                       ("F101-q1", dict(Q1_SPEC, field={"kind": "prime", "p": 101}))):
        path = tmp / ("spec-%s.json" % name)
        path.write_text(json.dumps(spec))
        reqs += [("monoidal %s" % name, ["monoidal", path]),
                 ("blowup %s --steps 7" % name, ["blowup", path, "--steps", "7"])]
    for label, argv in TEXT_REQUESTS.items():
        target = tmp / ("ext-a-5.json" if argv[0] == "ladder" else "spec-a.json")
        reqs.append((label + " --format text",
                     [argv[0], target, "--format", "text"] + argv[1:]))
    return [(label, [str(a) for a in argv]) for label, argv in reqs]


def transcript_hashes(tmp) -> dict:
    """sha256 of the exit code and stdout of each request."""
    hashes = {}
    for label, argv in _requests(pathlib.Path(tmp)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        blob = ("%d\n" % code + out.getvalue()).encode()
        hashes[label] = hashlib.sha256(blob).hexdigest()
    return hashes


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript_hashes(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in transcript_hashes(tmp).items():
            sys.stdout.write("    %r: %r,\n" % (label, digest))
