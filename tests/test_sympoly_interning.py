"""Hash-consing invariants of :mod:`repro.linalg.sympoly`.

Every ``SymExpr`` and every atom is the one canonical instance of its
structure, so ``==`` is ``is``.  These tests pin what that rests on:
equality, identity and ``repr`` agree on expressions built every way the
derivation builds them; evaluation is unchanged; concurrent builders get
one object; pickling and copying return the canonical instance; and the
derived paper forms keep their certificate digests.
"""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import syr2k_variants
from repro.linalg import sympoly
from repro.linalg.sympoly import (
    BoundedSum,
    FloorDiv,
    Ge0,
    Mod,
    Pos,
    SymExpr,
    bounded_sum,
    const,
    derivation,
    floordiv,
    fresh_name,
    ge0,
    mod,
    pos,
    sym,
)
from repro.numa.symbolic import SymbolicEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ----------------------------------------------------------------------
# recipes: a tiny expression language with a plain-integer meaning
# ----------------------------------------------------------------------

#: Symbols a recipe may use; ``r`` is also the bounded-sum variable.
_NAMES = ("N", "p", "P", "r")


def _modulus(kind):
    return sym("P") if kind == "P" else kind


def build(recipe):
    """The SymExpr a recipe describes, built through the public API."""
    op = recipe[0]
    if op == "sym":
        return sym(recipe[1])
    if op == "const":
        return const(recipe[1])
    if op == "add":
        return build(recipe[1]) + build(recipe[2])
    if op == "mul":
        return build(recipe[1]) * build(recipe[2])
    if op == "neg":
        return -build(recipe[1])
    if op == "mod":
        return mod(build(recipe[1]), _modulus(recipe[2]))
    if op == "floordiv":
        return floordiv(build(recipe[1]), _modulus(recipe[2]))
    if op == "pos":
        return pos(build(recipe[1]))
    if op == "ge0":
        return ge0(build(recipe[1]))
    if op == "bsum":
        bound = sym("P") if recipe[1] == "P" else const(recipe[1])
        return bounded_sum("r", bound, build(recipe[2]))
    if op == "subs":
        return build(recipe[1]).subs(recipe[2], build(recipe[3]))
    raise AssertionError(recipe)


def meaning(recipe, env):
    """The recipe's value under ``env``, in plain Python integers."""
    op = recipe[0]
    if op == "sym":
        return env[recipe[1]]
    if op == "const":
        return recipe[1]
    if op == "add":
        return meaning(recipe[1], env) + meaning(recipe[2], env)
    if op == "mul":
        return meaning(recipe[1], env) * meaning(recipe[2], env)
    if op == "neg":
        return -meaning(recipe[1], env)
    if op in ("mod", "floordiv"):
        m = env["P"] if recipe[2] == "P" else recipe[2]
        value = meaning(recipe[1], env)
        return value % m if op == "mod" else value // m
    if op == "pos":
        return max(0, meaning(recipe[1], env))
    if op == "ge0":
        return 1 if meaning(recipe[1], env) >= 0 else 0
    if op == "bsum":
        bound = env["P"] if recipe[1] == "P" else recipe[1]
        return sum(
            meaning(recipe[2], dict(env, r=value))
            for value in range(max(0, bound))
        )
    if op == "subs":
        inner = dict(env)
        inner[recipe[2]] = meaning(recipe[3], env)
        return meaning(recipe[1], inner)
    raise AssertionError(recipe)


_LEAF = st.one_of(
    st.tuples(st.just("sym"), st.sampled_from(_NAMES)),
    st.tuples(st.just("const"), st.integers(-3, 3)),
)

#: Substituted values never mention ``r``: capture avoidance would pick
#: a fresh bound-variable name per build, and two builds of one recipe
#: would then rightly differ.
_REPLACEMENT = st.one_of(
    st.tuples(st.just("sym"), st.sampled_from(("N", "p", "P"))),
    st.tuples(st.just("const"), st.integers(-2, 2)),
    st.tuples(
        st.just("add"),
        st.tuples(st.just("sym"), st.sampled_from(("N", "p"))),
        st.tuples(st.just("const"), st.integers(-2, 2)),
    ),
)


def _extend(children):
    modulus = st.sampled_from((2, 3, "P"))
    return st.one_of(
        st.tuples(st.just("add"), children, children),
        st.tuples(st.just("mul"), children, children),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("mod"), children, modulus),
        st.tuples(st.just("floordiv"), children, modulus),
        st.tuples(st.just("pos"), children),
        st.tuples(st.just("ge0"), children),
        st.tuples(st.just("bsum"), st.sampled_from((2, 3, "P")), children),
        st.tuples(
            st.just("subs"), children, st.sampled_from(("N", "p", "r")),
            _REPLACEMENT,
        ),
    )


RECIPES = st.recursive(_LEAF, _extend, max_leaves=8)
ENVS = st.fixed_dictionaries(
    {
        "N": st.integers(-3, 6),
        "p": st.integers(0, 3),
        "P": st.integers(1, 4),
        "r": st.integers(0, 2),
    }
)


def _deep_atoms(expr, out):
    for atom in expr.atoms():
        out.append(atom)
        if isinstance(atom, BoundedSum):
            _deep_atoms(atom.bound, out)
            _deep_atoms(atom.body, out)
        else:
            _deep_atoms(atom.arg, out)
    return out


class TestEqualityIsIdentity:
    @given(RECIPES, RECIPES, ENVS)
    @settings(max_examples=150, deadline=None)
    def test_equal_iff_identical_iff_same_repr(self, first, second, env):
        a = build(first)
        again = build(first)
        b = build(second)
        assert a is again
        assert (a == b) == (a is b) == (repr(a) == repr(b))
        assert a.evaluate(env) == meaning(first, env)
        assert b.evaluate(env) == meaning(second, env)

    @given(RECIPES, RECIPES, ENVS)
    @settings(max_examples=100, deadline=None)
    def test_replace_atom_keeps_identity(self, recipe, other, env):
        expr = build(recipe)
        replacement = build(other)
        for atom in _deep_atoms(expr, []):
            # Replacing an atom by itself is the identity, object and all.
            assert expr.replace_atom(atom, SymExpr._atom(atom)) is expr
            replaced = expr.replace_atom(atom, replacement)
            assert replaced is expr.replace_atom(atom, replacement)
            assert (replaced == expr) == (repr(replaced) == repr(expr))
        assert expr.evaluate(env) == meaning(recipe, env)

    def test_atoms_are_canonical_at_construction(self):
        arg = sym("N") + 1
        assert Mod(arg, 3) is Mod(sym("N") + 1, 3)
        assert FloorDiv(arg, sym("P")) is FloorDiv(arg, sym("P"))
        assert Mod(arg, 3) is not FloorDiv(arg, 3)
        assert Pos(arg) is Pos(1 + sym("N"))
        assert Ge0(arg) is not Pos(arg)
        body = sym("r") * sym("N")
        assert BoundedSum("r", sym("P"), body) is BoundedSum(
            "r", sym("P"), sym("N") * sym("r")
        )
        assert BoundedSum("r", sym("P"), body) is not BoundedSum(
            "s", sym("P"), body
        )

    def test_structurally_equal_monomials_merge(self):
        # Built apart, the two Mod atoms are one object, so their
        # monomials merge instead of sitting side by side.
        left = mod(sym("N") + 2, sym("P"))
        right = mod(2 + sym("N"), sym("P"))
        assert left is right
        assert left - right is const(0)
        assert (left + right)._terms == ((left._terms[0][0], 2),)


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------

def _thread_batch(tag):
    """Expressions over a symbol no other test uses, so every thread's
    first build of each one races for the intern table's miss path."""
    x, P = sym(f"x_{tag}"), sym("P")
    out = []
    for k in range(1, 60):
        a = mod(k * x + 1, P)
        b = floordiv(x + k, 3) + pos(x - k)
        c = bounded_sum("r", P, ge0(sym("r") - x) * a)
        out.extend([a, b, c, a * b + c, (a + b).subs(f"x_{tag}", x + k)])
    return out


def test_concurrent_builders_get_one_object():
    threads = 8
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def work(index):
        try:
            barrier.wait(timeout=60)
            results[index] = _thread_batch("threads")
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    # Switch threads as often as possible, so builders interleave inside
    # the intern tables' miss paths.
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    first = results[0]
    for other in results[1:]:
        assert len(other) == len(first)
        for mine, theirs in zip(first, other):
            assert mine is theirs
    for expr in first:
        for atom in _deep_atoms(expr, []):
            assert type(atom)(*atom.__reduce__()[1]) is atom


# ----------------------------------------------------------------------
# lifetime: order numbers hold while an atom can be rebuilt
# ----------------------------------------------------------------------

def test_atom_over_fresh_name_keeps_its_number_within_a_derivation():
    with derivation():
        name = fresh_name()
        first = pos(sym(name) - sym("N"))
        number = first._terms[0][0][0][0]._sortkey
        del first
        gc.collect()
        # Dropped and rebuilt while the name is in use: same number.
        again = pos(sym(name) - sym("N"))
        assert again._terms[0][0][0][0]._sortkey == number


def test_overlapping_derivations_release_once_all_have_closed():
    opened = threading.Barrier(2)
    first_closed = threading.Event()
    held = []
    kept_while_open = []

    def derive(index):
        with derivation():
            name = fresh_name()
            held.append(pos(sym(name) - sym("N") - index))
            opened.wait(timeout=60)
            if index:
                first_closed.wait(timeout=60)
                # One scope is still open: nothing was released.
                kept_while_open.append(len(sympoly._ARENA[1]))
        if not index:
            first_closed.set()

    workers = [threading.Thread(target=derive, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert kept_while_open and kept_while_open[0] >= 2
    assert sympoly._ARENA == [0, []]
    # Released from the arena, the atoms now live as long as a form does.
    atoms = [expr._terms[0][0][0][0] for expr in held]
    assert all(type(atom)(*atom.__reduce__()[1]) is atom for atom in atoms)
    del held, atoms
    gc.collect()


def test_repeated_derivations_do_not_grow_the_registry():
    node = syr2k_variants(24, 3)["syr2k"]
    kept = SymbolicEngine(node)
    gc.collect()
    size = len(sympoly._ATOMS)
    for _ in range(3):
        SymbolicEngine(node)
        gc.collect()
    # Every derivation binds new fresh names; the atoms over them that
    # no live form uses are freed, so the registry does not grow.
    assert len(sympoly._ATOMS) == size
    # A live engine's forms keep their atoms.
    for form in kept.forms.values():
        for atom in _deep_atoms(form, []):
            assert type(atom)(*atom.__reduce__()[1]) is atom


# ----------------------------------------------------------------------
# pickle and copy
# ----------------------------------------------------------------------

def _every_kind():
    N, P, r = sym("N"), sym("P"), sym("r")
    return (
        N * N - 3 * N + 7,
        mod(2 * N + 1, P) + floordiv(N - 1, 3),
        pos(N - P) * ge0(P - 2),
        bounded_sum("r", P, mod(r + N, P) * r),
        const(0),
    )


def test_pickle_and_copy_return_the_canonical_instance():
    for expr in _every_kind():
        assert pickle.loads(pickle.dumps(expr)) is expr
        assert copy.copy(expr) is expr
        assert copy.deepcopy(expr) is expr
        for atom in _deep_atoms(expr, []):
            assert pickle.loads(pickle.dumps(atom)) is atom
            assert copy.deepcopy(atom) is atom


# ----------------------------------------------------------------------
# derived forms are byte-identical
# ----------------------------------------------------------------------

#: Certificate digests of the Figure 4 and Figure 5 variants' forms,
#: derived in a fresh interpreter in this order.  Term order follows the
#: atoms' first-sight numbering, so these pin that hash-consing kept it.
PAPER_DIGESTS = {
    "gemm": "d4a5373c6384bd7ef64256bcdc3934555ac6a1d550deb9f18cc08faea52774e8",
    "gemmT": "311b6cb05d95d5dce1f6ffc81dc14a19f14846db241b3946414d44b5926411ca",
    "gemmB": "d6b10d413c898e643b365ea1f48c60ed1f3d9a6e881f5e3a56738d79195d82c1",
    "syr2k": "a267d54aa5a6b1fb5f32bb964779f7649b897741822b5e289b1bb28d2b89f3e2",
    "syr2kT": "d26b93edafefa7b31ae62468b203828a4060f41a74673dac14cfe555cbf90af1",
    "syr2kB": "f6393a1912ad3ad517f365a658b8b3fab984026d3e892b09d06034d8e5520388",
}

_DIGEST_SCRIPT = """
import json
from repro.analysis.forms import certify_engine
from repro.bench.figures import gemm_variants, syr2k_variants
from repro.numa.symbolic import SymbolicEngine

digests = {}
for variants in (gemm_variants(400), syr2k_variants(400, 48)):
    for name, node in variants.items():
        # A zero point budget stops before the grid check; the digest
        # covers the forms and the anchor either way.
        cert = certify_engine(SymbolicEngine(node), point_budget=0)
        digests[name] = cert.digest
print(json.dumps(digests))
"""


def test_paper_form_digests_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    output = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        capture_output=True, text=True, check=True, env=env, cwd=REPO_ROOT,
    ).stdout
    assert json.loads(output) == PAPER_DIGESTS
