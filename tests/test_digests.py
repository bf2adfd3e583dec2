"""Pinned digests of the conventions no other test reads in full.

Generator coordinates follow the elimination order of the integer
engine, so a change of that order can keep every group and almost every
test while it moves lattice bases, representatives and the signs of
induced maps.  Each digest below hashes, for one digraph:

- the Ω lattice basis (as allowed-path coordinates) and the boundary
  columns of degrees 0-3;
- the groups and generator representatives of path H_0-H_2, absolute and
  reduced;
- the nondegenerate cube basis of degrees 0-3 and the groups and
  generator representatives of cubical H_0-H_2, absolute and reduced.

A failure names the digraph whose outputs moved.
"""

import hashlib
import random

from digraph_homology.cubes import CubicalComplex
from digraph_homology.digraphs import cycle_digraph, suspension
from digraph_homology.paths import OmegaComplex
from digraph_homology.randomgen import random_digraph


def _inputs():
    rng = random.Random(13)
    named = [(f"random{i}", random_digraph(rng, min_vertices=4)) for i in range(20)]
    named += [(f"C{m}", cycle_digraph(m)) for m in (3, 4, 5, 6)]
    named.append(("SC4", suspension(cycle_digraph(4))))
    return named


def _vec(v: dict) -> list:
    return sorted(v.items())


def _homology(complex, degrees) -> list:
    out = []
    for view in (complex, complex.reduced):
        for n in degrees:
            hd = view.homology(n)
            reps = [_vec(hd.representative(j)) for j in range(hd.n_generators)]
            out.append((n, hd.group.rank, hd.group.torsion, reps))
    return out


def _digest(g) -> str:
    oc = OmegaComplex(g).grow(3)
    cc = CubicalComplex(g).grow(3)
    parts = [
        [[_vec(v) for v in oc._echelons[n].basis_vectors()] for n in range(4)],
        [[_vec(c) for c in oc.complex.boundary_cols[n]] for n in range(4)],
        _homology(oc.complex, range(3)),
        [cc.basis[n] for n in range(4)],
        _homology(cc.complex, range(3)),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


PINNED = [
    ("random0", "aa041f4d0372c17c3995f29a5fc0033ba3b5966e6950026901dc34c3d3cc6356"),
    ("random1", "c12c5c11448ba6cc4853e328dee0c332f6979b987834f667624ddda331c6502c"),
    ("random2", "7601d9b8ed5bc939f03fbd514aec6dd55b082d500a2f6bbc0dda72a41ed66112"),
    ("random3", "cfc7dc940c0065a31a69a3786e9a48b707be28accab8f0318bdb0525ebee9846"),
    ("random4", "636d79c9136eda18e0b8596c26b6b42da10e25e8c10a9bdd0186661e95d668d0"),
    ("random5", "9b3842c9a4063563c144d096d9a998375d828e757ff564b1542974f2080658c4"),
    ("random6", "091e6692c0f68d8b31fdfc081183817c987f032ca734d53481949a790bac95bd"),
    ("random7", "7ec7c1b22a275c0968e46bdaf8e04e67dd1267a5e3348f4fcd7b2a5e7732b65a"),
    ("random8", "fe8fd4d7bbb1e85ad1ada0cf45ac86db383abaa22b8a487fbff5d1ec562a594d"),
    ("random9", "d82d0a0984eeaae91bdae1838964f78f8b489887764d63e37102c91b07c23b79"),
    ("random10", "9ef5e6ee4dc4ecda66a3afae9707f50bdd4db45768b461122dbe04a8615de69e"),
    ("random11", "f1b877d47b1565529cff0b981ab0ce8ad5b1970d0aa85433089e32261b8e0aa9"),
    ("random12", "da6b473bb22b7e1b4667db24d69e7760d86c5e9bd1a6aec4e85dc25cdc7a34ba"),
    ("random13", "69d9d1a0effd9b51f7712e290fe2648b1b2e892cdcc9fc269286ee6177613146"),
    ("random14", "7433d91e8e751a91247622d295b95b58be9e09a8f862ad66b4ed885cd86970c7"),
    ("random15", "6597e3ec788719d7bf86906d8fe2c3e1ebf9a8e235ae7d38c0db87704c5773a8"),
    ("random16", "10d5432523fe5410cad3a6645c90a4b9e05c0d2c9b62e38181c9686b2b12a62b"),
    ("random17", "b071b79efccc32a673c4b66a0fbde81d42dbf22fd87bc1e4ba82243485a79705"),
    ("random18", "a5098d384bf014d9d957e46f22dcb1c0285d7f21a2aadd9b4e6a46496cfb2eba"),
    ("random19", "84a9143198c2a39819199de7cd44c400ee4a98c4ad15872553bb58e029c55e9a"),
    ("C3", "e74e56381988f8ea4039ab5b6c6c8b8836aa0e54467cc4d165ae45b03e8ab1df"),
    ("C4", "566638881982bf418ed7d09a914cd3972d6773c0729fb3646d4069f08421e512"),
    ("C5", "0a51eaa7248dfc535bc68d6f0c0b5554d6228dff8dd6289dbc0ec3768131d81d"),
    ("C6", "0c5c96bc81477a45ba6b1ac2139f8021ce984e9af08c3715c320c8eda1373121"),
    ("SC4", "39c5878199a7ecc7ef8a738e24b751a86412dccdac751fabfd4b386bd585380c"),
]


def test_outputs_are_pinned_per_digraph():
    got = [(name, _digest(g)) for name, g in _inputs()]
    assert got == PINNED
