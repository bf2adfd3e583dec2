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
    ("random0", "275d16d84f803e48ab52352872eacbf47b185f7bc1cf95b024cf77b89c43effa"),
    ("random1", "1ccd64bb9905f2e837ae400a46b4beed93c070521461b14084f294822a313970"),
    ("random2", "9f85431c084551fdf3ea337b1da6567306fab967bffd9e6610c501d0231fdee7"),
    ("random3", "723b3ef9fa9cf92b2601c3cc998cae46250a3996679914f76b7606a4f7573c5c"),
    ("random4", "c76d2aff1241bd2ef5bf48250b06b7d332d0f995afb22854058b01af33199f93"),
    ("random5", "8bba5a7cf880b250a582cd59e6cf53aa49df0101f96c3883ac57591779f8913c"),
    ("random6", "9104ae146038e43ab9443743cc9054c187264fb94327fd0f0bc15c6c6c112a59"),
    ("random7", "073d6baa599b3fc321c46f7ce66d76c1cc29cdce55557a5cad9c4964bf4c610f"),
    ("random8", "7e251b5ed79ea0f77df2ae7ef6fef933e8e7bce6d7dd7d8fca408f5af8716b3d"),
    ("random9", "d82d0a0984eeaae91bdae1838964f78f8b489887764d63e37102c91b07c23b79"),
    ("random10", "8323a3174f87a7f7a17c502ff507dcd7866edc6b5370de2d1fac145a7ccaaa6a"),
    ("random11", "095ebc2abf2c2e374e604abd1af1bca364f7aaa450e38a3e90aa0228d1888df7"),
    ("random12", "37f3083f473bf24501e0a3ac045c98b34d1e093bd4c77d0df653265229557633"),
    ("random13", "864fc8ee0aa40e8b05f521a061cb2b88f5eb1b6e27fd73a56d1d1620c07572b8"),
    ("random14", "dcfa92b85e3debccbf0bb32b5a71b86f8c8ab2cee53f91f9012009b792f478e8"),
    ("random15", "a523b931ed75a5401cebbdbc596e07f16308e77e11438774182401dab165803d"),
    ("random16", "10040378f0bd10e71b68afe4beb1289b0855d33ff8e69334c0a8cad46ff54620"),
    ("random17", "d382fb46b2db13d22f21a8fbe0326081241a71e18be15271f6e6765f68bdaaee"),
    ("random18", "ff0d37e36e8849ec15ebc6f0abbb565ad5bb17b0fcafcaf98758afeddbacdc46"),
    ("random19", "adcb7ceffe2b5df29a90880d52b76587852431eeca0055804d57cd72dedaef3b"),
    ("C3", "34d2ea11a0c775ebb1584b9d35c4b0f74cc679838fc08220fb066201f4f4988c"),
    ("C4", "9824d2873d12046c33fc028c493b13e9bea14eb9d17a3c325b39fcd415b3572c"),
    ("C5", "8c933064b5d8e142144f6b9995c57f253b246f07287cbf061024fcd6989645ff"),
    ("C6", "9463930e3f22f8d676478575b23c1198372e700e1704c3d5c257e7ef57be18ce"),
    ("SC4", "caf194c86aa881e7d93b41baf9f966eb46ad8d1f059b1ec85b427942655566e5"),
]


def test_outputs_are_pinned_per_digraph():
    got = [(name, _digest(g)) for name, g in _inputs()]
    assert got == PINNED
