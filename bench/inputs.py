"""Seeded inputs of the four workloads, as plain data.

Both sides of the benchmark read these: the worker turns them into the
package's objects, and the checker computes its references from them.
Nothing here imports ``resurgence``.

Every workload keeps the *shape* of its inputs fixed (word weights, index
depths, alphabet sizes, term counts) and lets the seed pick only values
inside that shape (letters, colours, exponent orders, evaluation points,
mould entries), so that runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("iterated-integrals", "certified-sums", "exact-algebra",
             "cli-readme")

HALF = Fraction(1, 2)


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeding is stable across interpreter runs (no hash salt)
    return random.Random(f"{workload}:{seed}")


def _real_slice_index(rng, s):
    """An index with colours in {0, 1/2} and a convergent head."""
    eps = [rng.choice((Fraction(0), HALF)) for _ in s]
    if s[0] == 1:
        eps[0] = HALF
    return (tuple(s), tuple(eps))


def iterated_integrals(seed: int) -> dict:
    rng = rng_for("iterated-integrals", seed)
    # one word per weight 2, 3, 4; depths fixed per weight so the paired
    # nested sums cost the same on every seed
    shapes = [[(1, 1)], [(2, 1), (1, 2)], [(2, 1, 1), (1, 2, 1), (1, 1, 2)]]
    indices = [_real_slice_index(rng, rng.choice(group)) for group in shapes]
    return {
        "indices": indices,
        # words with closed forms, at two precisions (node counts 53 and 80)
        "L_words": [(1, 1), (1, 2), (2, 1), (1, 1, 1)],
        "L_precs": [53, 80],
        # the shuffle identity L(2) * L(2,2) = 3 * L(2,2,2)
        "L_shuffle": [(2,), (2, 2), (2, 2, 2)],
    }


def _colour(rng, max_den=12):
    den = rng.randint(2, max_den)
    num = rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1])
    return Fraction(num, den)


def dual(s):
    """The dual of a real index: spell s as x^(s_1 - 1) y ... x^(s_r - 1) y,
    reverse, swap x and y, and read the blocks back."""
    word = "".join("x" * (k - 1) + "y" for k in s)
    swapped = word[::-1].translate(str.maketrans("xy", "yx"))
    out, run = [], 0
    for ch in swapped:
        if ch == "x":
            run += 1
        else:
            out.append(run + 1)
            run = 0
    return tuple(out)


def certified_sums(seed: int) -> dict:
    rng = rng_for("certified-sums", seed)
    coloured = [((rng.randint(1, 8),), (_colour(rng),)) for _ in range(3)]
    # real indices with closed forms; one seeded single zeta value
    closed = [((rng.randint(2, 12),), None), ((4, 4, 4), None),
              ((2, 2, 2, 2), None), ((3, 1, 3, 1), None),
              ((2, 1, 1, 1), None)]
    dual_source = rng.choice([(4, 1), (3, 2), (2, 3)])
    # a depth-4 coloured index, evaluated with its colours negated too:
    # the two sums are complex conjugates term by term
    deep = (tuple(rng.randint(1, 3) for _ in range(4)),
            tuple(_colour(rng) for _ in range(4)))
    # a coloured pair sharing one colour group, so that merged and decoded
    # colours stay inside the supported denominators; a != b and a + b != 0
    # keep the six terms of the two expansions distinct and coloured, so
    # every seed evaluates the same number of nested sums
    group = rng.randint(4, 12)
    pa = rng.randint(1, group - 1)
    pb = rng.choice([p for p in range(1, group) if p != pa and pa + p != group])
    relations = [
        (((3, 1), None), ((2,), None)),
        (((1,), (Fraction(pa, group),)), ((2,), (Fraction(pb, group),))),
    ]
    # evaluation points move the truncation point and the node counts, so
    # the seed picks them from narrow ranges
    rays = [
        ("stirling", Fraction(rng.randint(32, 40), 4)),
        ("stirling", complex(4, rng.choice((1, -1)) * rng.randint(4, 8) / 4)),
        ("euler", Fraction(rng.randint(12, 14), 4)),
        ("euler", complex(3, rng.choice((1, -1)) * rng.randint(2, 4) / 4)),
    ]
    hankel_z = Fraction(rng.randint(8, 10), 4)
    return {
        "coloured": coloured,
        "closed": closed,
        "dual_source": dual_source,
        "dual_target": dual(dual_source),
        "deep": deep,
        "relations": relations,
        "rays": rays,
        "jump_z": -Fraction(rng.randint(11, 13), 4),
        "hankel": [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), "pole"],
        "hankel_z": hankel_z,
    }


# Exact arithmetic costs more on larger numerators and denominators, and
# zero entries are not stored, so every seed draws its mould entries and
# polynomial terms from the same multisets and only permutes them.
ENTRY_VALUES = [Fraction(sign * k, d) for k in (1, 2, 3, 4)
                for d in (1, 2, 3) for sign in (1, -1)]
# three parts with value sets that no permutation makes proportional, so
# that no bracket of two parts vanishes
LETTER_VALUES = [(Fraction(1), Fraction(-3, 2), Fraction(2)),
                 (Fraction(2), Fraction(1, 2), Fraction(-1)),
                 (Fraction(-1), Fraction(3), Fraction(1, 3))]
EXPONENTS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _words(letters, max_length):
    words, out = [()], []
    for _ in range(max_length):
        words = [w + (a,) for w in words for a in letters]
        out += words
    return out


def _random_entries(rng, letters, max_length, empty_value):
    words = _words(letters, max_length)
    values = [ENTRY_VALUES[i % len(ENTRY_VALUES)] for i in range(len(words))]
    rng.shuffle(values)
    entries = {(): Fraction(empty_value)}
    entries.update(zip(words, values))
    return entries


def _letter_parts(rng, letters):
    parts = []
    for values in LETTER_VALUES:
        values = list(values[:len(letters)])
        rng.shuffle(values)
        sign = rng.choice((1, -1))
        parts.append({(a,): sign * v for a, v in zip(letters, values)})
    return parts


def _polynomials(rng, count, terms):
    """``count`` polynomials of ``terms`` terms over three variables:
    exponents from a fixed cycle of {0,1}^3, coefficients +-1 and +-2."""
    n = count * terms
    expos = [EXPONENTS[i % len(EXPONENTS)] for i in range(n)]
    coeffs = [(1, -1, 2, -2)[i % 4] for i in range(n)]
    rng.shuffle(expos)
    rng.shuffle(coeffs)
    pairs = list(zip(expos, coeffs))
    return [pairs[i * terms:(i + 1) * terms] for i in range(count)]


def exact_algebra(seed: int) -> dict:
    rng = rng_for("exact-algebra", seed)
    alphabets = [((1, 2), 6), ((1, 2, 3), 4)]
    moulds = []
    for letters, length in alphabets:
        moulds.append({
            "letters": letters,
            "length": length,
            "nilpotent": _random_entries(rng, letters, length, 0),
            "grouplike": _random_entries(rng, letters, length, 1),
            "general": _random_entries(rng, letters, length, 2),
            "third": _random_entries(rng, letters, length, 1),
            # letter-supported moulds are alternal; brackets keep them so
            "alternal_parts": _letter_parts(rng, letters),
            "bracket_scales": (rng.choice((1, -1)) * Fraction(1, 2),
                               rng.choice((1, -1)) * Fraction(2, 3)),
        })
    lie = [_letter_parts(rng, (1, 2)) for _ in range(4)]
    leibniz = []
    for _ in range(2):
        images = _polynomials(rng, 12, 2)
        f, g = _polynomials(rng, 2, 2)
        leibniz.append({"ops": {j: images[3 * (j - 1):3 * j]
                                for j in range(1, 5)},
                        "f": f, "g": g})
    return {
        "moulds": moulds,
        "lie": lie,
        "leibniz": leibniz,
        "alien_r": list(range(1, 7)),
        "prefix_words": [(1, 2), (2, 1), (1, 1), (2, 2)],
        "extract_L_eta": [2, 3],
        "predict_n": 30,
        "lattice_n": 20,
    }


# the README's command lines, in order; ``>`` and ``m.json`` go through a
# scratch file exactly as a shell would route them
README_COMMANDS = [
    "alien --input stirling --omega 2pii --derivation",
    "sum --input stirling --theta 0 --z 10 --target-err 1e-10",
    "sum --jump --input euler --theta-star pi --z -3",
    "sum --input I_sigma:1/2 --hankel --theta 0 --z 2",
    "mzv eval --s 2,1",
    "mzv relation --a 2 --b 3 --mode stuffle,shuffle",
    "mould make --exp-scale 1/2 --letters 1 --order 4 > m.json",
    "mould check --file m.json --symmetral",
    "hyperlog --word 1,2 --order 12",
    "series --input euler --order 8 --borel",
]


def cli_readme(seed: int) -> dict:
    # the commands are the README's; the seed has nothing to choose
    return {"commands": list(README_COMMANDS)}


BUILDERS = {
    "iterated-integrals": iterated_integrals,
    "certified-sums": certified_sums,
    "exact-algebra": exact_algebra,
    "cli-readme": cli_readme,
}


def make(workload: str, seed: int) -> dict:
    return BUILDERS[workload](seed)
