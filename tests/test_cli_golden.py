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

When the certificates stopped reporting checks that hold by
construction, the eight ``dual`` rows with an upstairs sequence lost
``pq_ok``, ``beta_ok`` and ``n_ok``, the four ``classify b`` rows their
``discrete_branch`` report and every ``monoidal`` row (the text one
included) its ``denominator_exponent``; with those keys removed, each new
report equals the old one.  Two F_101 rows were added then:
``ladder F101-rung3 t=7``, whose residue law needs Delta_2(0) = 32 at
rung 3, recorded before that change with the same bytes, and
``monoidal F101-level3``, whose level 3 needs the coefficient a_3 of the
residue law and failed before it.
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

#: over F_101: a ladder whose residue law needs Delta_2(0) = 32 at rung 3
#: (t = 7), and a 3-level monoidal whose law needs a_3 (delta_3 = 1 + u)
RUNG3_SPEC = {"field": {"kind": "prime", "p": 101}, "pairs": [[2, 1], [3, 4], [3, 1], [5, 4]],
              "lambdas": ["3", "2", "2", "2"], "units": ["1", "1", "1", "1"],
              "mode": "nondiscrete"}
LEVEL3_SPEC = {"field": {"kind": "prime", "p": 101}, "pairs": [[1, 2], [1, 3], [5, 2]],
               "lambdas": ["2", "3", "1"], "units": ["1", "1", {"vars": ["u", "v"], "terms": [
                   {"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": "1"}]}],
               "mode": "nondiscrete"}

#: requests on spec-a rendered with ``--format text``
TEXT_REQUESTS = {"monoidal a": ["monoidal"], "ladder a t=5": ["ladder"],
                 "verify a": ["verify"] + VERIFY_ARGS["a"]}

GOLDEN = {
    'genseq a': '9410f26137acc73c70f57a4438ed9111ea5f371e534f99e9879eef754b34dbeb',
    'blowup a --steps 3': 'd4b7957e548f3cdf10fc67e3364445384d7333989ceb9d50f9caacc634408e6a',
    'eval a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand a poly': 'd8926174cb19f79f8a6ad5d577edcb3dc4bb1a7a516c222f40c9d473a06b8052',
    'verify a': 'e29d28b5fabfbdc0906017c673b1f533789038a1a61ab0d97ad8101001fdb533',
    'monoidal a': 'f35832d6d0b8ef23a37cb51c9d588cb654c2e8281c76a9163c3770fc7ee9eba7',
    'blowup a --steps 7': 'd034032c0d063a57e021c7ad31385afb6ccfc07045982ee3533f36de55df43c8',
    'ladder a t=2': '796e1dd661b493a06d2c64e76f1512b9c97a2a891e490abb47303b0bc3a1090e',
    'classify a t=2': '40da0b418754481ca597b49d61d921f914807e935f7a5b640a56ef4db4407b36',
    'dual a t=2': 'e95cea1a8af5bc2e619494d198bbd65c31417a6ae4e9920c0b5fad347bee2f12',
    'ladder a t=3': '7e1c6e845cd818ceab963302a8adaf66032839146fe61cc010fd19d8fce7ed9c',
    'classify a t=3': '8f3a156ba51b0375650836270788391760aa29fa845a112d6bd00b22736896d4',
    'dual a t=3': '1087d2a7b933ecc25199bc4b5803461b8fefd6a3b10632ec0aef67f2d3bc4c54',
    'ladder a t=5': '7ef337af3f44c23533bd3941cd4192cb54ce522f64224d96fd64a7d042d333f7',
    'classify a t=5': '606ec62ce8b3bafc02d10995cf0bf7ca678f4e5184280aa2149707030d873ba3',
    'dual a t=5': 'd81b3feb516a47410f300275dcdbd8e5c75fb008c6435e807212dc207cc5a3ea',
    'ladder a t=7': 'c61f885e02e03e479724471ad2f13aa6aa7ae3fedb120b98b7d53a7e92558900',
    'classify a t=7': '25ee36c07eb4379d6a54589bab3bb71d788cf6b3395ef4ce1d6571e2626d5d67',
    'dual a t=7': '364c01d004ed4058e755315f5de5f66efb39abf5a16f6ce5402e72c22caeebce',
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
    'classify b t=2': '7e610b629b8cd55b7d0661b71f8296390d794575094cc9af95521b8e734fa539',
    'dual b t=2': '94badbcab6cfa156d7713bd3f58406efc70d920fcf7319adb76e3bb344404457',
    'ladder b t=3': '5e1726df65f100fce47a64779c200c25f057ddc0e5afb1ed757617ba4ddb3a6e',
    'classify b t=3': '7e610b629b8cd55b7d0661b71f8296390d794575094cc9af95521b8e734fa539',
    'dual b t=3': '62108a4ef80bf50654a70c34c9d341b074b68da87f44296be6125eb6e08fedcc',
    'ladder b t=5': 'eca05d81ae60e8c3c3e982c98fc986d02ffa338db12d2ccb82fc90740ee5616d',
    'classify b t=5': '7e610b629b8cd55b7d0661b71f8296390d794575094cc9af95521b8e734fa539',
    'dual b t=5': '5680de910e8408dc160b10c17642061c697d64cb73ba8244c256dae5b8bab981',
    'ladder b t=7': 'dc0d0c6fd71c3c2725290baa39f6cb049606a77119e05f7038e4e826d267c878',
    'classify b t=7': '7e610b629b8cd55b7d0661b71f8296390d794575094cc9af95521b8e734fa539',
    'dual b t=7': '661fa17dec05d144e8bf45b86e69c58d15b70feabc2ecebb627ce1d59a8194ce',
    'genseq F101-a': 'e396de12aedcd50b1ca975b2bbedd8f6284b8c1c4e400b0c6e98da8d606ae7ab',
    'blowup F101-a --steps 3': 'be70e6aad6bfbaaa6fbbf25e7b3064903f74e98c3f09ab574f466a5bb0d95088',
    'eval F101-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand F101-a poly': '57c59a8301865a9edb3a422ac8d63f086117cff4a5547a4d1684d0ef8a69ddfd',
    'verify F101-a': 'c2f2bfb683266ce80e042a6e948b3a3792b953117037ee056c6a5ea6ce11964c',
    'monoidal F101-a': 'c9d6902d390739fe2f38f1d1b95e8ed79736a2fa05b6f28a8c593fc9b82ad4ff',
    'blowup F101-a --steps 7': 'a684aaab9ba38fba2012abc9bd7fbc24d1efd681777b61ac2c9a5c9a221cb7b7',
    'ladder F101-a t=2': '796e1dd661b493a06d2c64e76f1512b9c97a2a891e490abb47303b0bc3a1090e',
    'classify F101-a t=2': '40da0b418754481ca597b49d61d921f914807e935f7a5b640a56ef4db4407b36',
    'dual F101-a t=2': 'e95cea1a8af5bc2e619494d198bbd65c31417a6ae4e9920c0b5fad347bee2f12',
    'ladder F101-a t=3': '7e1c6e845cd818ceab963302a8adaf66032839146fe61cc010fd19d8fce7ed9c',
    'classify F101-a t=3': '8f3a156ba51b0375650836270788391760aa29fa845a112d6bd00b22736896d4',
    'dual F101-a t=3': '1087d2a7b933ecc25199bc4b5803461b8fefd6a3b10632ec0aef67f2d3bc4c54',
    'ladder F101-a t=5': '770adf314a83b4451e7122717d66f6fda8e453ea8bf1b31d7feb0eae9b87ddd3',
    'classify F101-a t=5': 'a98811a0904b88bdf3032361096c777ca9eb216e464d2ae33baf89bab52c19bd',
    'dual F101-a t=5': 'd81b3feb516a47410f300275dcdbd8e5c75fb008c6435e807212dc207cc5a3ea',
    'ladder F101-a t=7': '223c7544564d231ccf34c72b02ce4e7e3c6fbce8ad6a85de2077493c45763727',
    'classify F101-a t=7': '19307fa52f924e4c763e1322e32a649510a9d8f23a729a77f0698b2ef388eded',
    'dual F101-a t=7': '364c01d004ed4058e755315f5de5f66efb39abf5a16f6ce5402e72c22caeebce',
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
    'monoidal F3-a': 'de62eca5884a627c5065050c2fce2365dd128878161651344c1726d08cf99633',
    'verify F3-a --samples 5': 'eb415a412b307bb713bed8acce91a2d3a08cb5ede25619fb177ce30d7e340b9f',
    'ladder F3-a t=5': 'f1dff6c2d4bed8e17df2aaa34d2a29ee2c5aaf6c00d30fed39470c578bbf2c82',
    'genseq F5-a': 'c5ac568ea4a1cd85e0ec33281d1ed22bc043c61e0279b7ea483ccec22b95e0ee',
    'eval F5-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand F5-a poly': '25d5ff8320315b240fc6e618267927e6d1047bcdccd3d385ec51ffe11a812f7e',
    'monoidal F5-a': 'efd94658bf1709fa7a010b44c2175a28a9305c0f9ef0fee524a03cec38961c77',
    'verify F5-a --samples 5': '95bbeb83bd0970b04270a7e7d4e78213631f4115eb6a5589a92da5aec45f877d',
    'ladder F5-a t=7': 'c61f885e02e03e479724471ad2f13aa6aa7ae3fedb120b98b7d53a7e92558900',
    'genseq Qfrac-a': '7c223216c6da99527dd9c884c0538cef3a48a130109de887b8c417a144e8dfd9',
    'eval Qfrac-a poly': 'dea52163a170b8b6c355bab8bda5d80812af9488befbb719be689090965b7917',
    'expand Qfrac-a poly': '1b16c29a8aef7c2addd723a78c54bebd8c06f211b73afa76aaf449260a450209',
    'monoidal Qfrac-a': '93f870787229d03e02701df74f928d4f2b8c8b7ab87180b1f3d6eb12bad9a911',
    'verify Qfrac-a --samples 5': '8346c69372985d215a03e086e3b47a7a6e48f5d75dc197423f8a5b33e50ae0c5',
    'ladder Qfrac-a t=5': 'f87a985477570f4540ddb13e0af068cf235115975a9e23064d7a90f2a78f3ef7',
    'ladder Qfrac-a t=7': '6e41de0b81c1562515e48d6dbdafac208f1e691c8743b7e9ff0baebde2172a3d',
    'monoidal q1': 'da9e24078b9ace1decb59b7f1005cd6a2fb2203cf95010d46b93284c610111de',
    'blowup q1 --steps 7': '9a7ddf6b66a95cd90d7cb7f270578fadf73640100d9cf7b84bd03cb9b37463bb',
    'monoidal F101-q1': 'cd617e7cb893460c59201f84a764568cf76a11dab0e8d37080f810de7eeaabe1',
    'blowup F101-q1 --steps 7': 'aba357e425ac37ebac189a010c0a30587cb30fbb338f4cd42745e57afe6167cb',
    'ladder F101-rung3 t=7': 'e0910ceafba6ab77e0b99e93d6cb579eed3d6c44da56e867413f41dc32498e86',
    'monoidal F101-level3': 'ded228d46612a734213917b3e191e80ece3dc87945f76d526a411e698f8e5ef2',
    'monoidal a --format text': 'd65654888cf1d36802d96032432b8bd55f221b940b86292be8ef4bbb4fe6c17d',
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
    rung3, level3 = tmp / "ext-F101-rung3-7.json", tmp / "spec-F101-level3.json"
    rung3.write_text(json.dumps({"t": 7, "delta": "1", "spec": RUNG3_SPEC}))
    level3.write_text(json.dumps(LEVEL3_SPEC))
    reqs += [("ladder F101-rung3 t=7", ["ladder", rung3]),
             ("monoidal F101-level3", ["monoidal", level3])]
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
