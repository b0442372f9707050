"""Byte pins for the constructions: a SHA-256 of `format_bundle` per instance.

The ladder covers every construction, both spread methods (with
gabidulin-echelon spreads of three and four levels), fields of order 2, 3,
4, 5, 11 and 16, design strengths t = 1 and 2, and several std-par
classes. Over gf(11) and gf(16) an entry can take two digits, and the
reader splits a row holding one into tokens instead of decoding it digit
by digit. A refactor of the builders must leave every bundle
byte-identical, and `parse_bundle` must read every bundle back to the code
it was written from. After a deliberate change of a construction's output,
print the new pins with

    PYTHONPATH=src python tests/test_bundle_pins.py

and say in the change log which pins changed and why.
"""

import hashlib

import pytest

from subspace_lrc.arraycode import (
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    format_bundle,
    parse_bundle,
)
from subspace_lrc.gf import field_from_order
from subspace_lrc.linalg import Subspace


def _from_blocks(q, M, spans):
    field = field_from_order(q)
    return construction_from_blocks(field, [Subspace.from_span(field, M, rows) for rows in spans])


LADDER = {
    "all-subspaces-q2-M4-b2": lambda: construction_all_subspaces(field_from_order(2), 4, 2),
    "all-subspaces-q3-M3-b2": lambda: construction_all_subspaces(field_from_order(3), 3, 2),
    "all-subspaces-q4-M3-b1": lambda: construction_all_subspaces(field_from_order(4), 3, 1),
    "all-subspaces-q5-M2-b1": lambda: construction_all_subspaces(field_from_order(5), 2, 1),
    "all-subspaces-q11-M2-b1": lambda: construction_all_subspaces(field_from_order(11), 2, 1),
    "all-subspaces-q16-M2-b1": lambda: construction_all_subspaces(field_from_order(16), 2, 1),
    "spread-q2-M6-b2": lambda: construction_spread(field_from_order(2), 6, 2),
    "spread-q2-M8-b2": lambda: construction_spread(field_from_order(2), 8, 2),
    "spread-q2-M9-b3": lambda: construction_spread(field_from_order(2), 9, 3),
    "spread-q3-M6-b2": lambda: construction_spread(field_from_order(3), 6, 2),
    "spread-q4-M4-b2": lambda: construction_spread(field_from_order(4), 4, 2),
    "spread-q5-M4-b2": lambda: construction_spread(field_from_order(5), 4, 2),
    "spread-q5-M3-b1": lambda: construction_spread(field_from_order(5), 3, 1),
    "spread-q11-M4-b2": lambda: construction_spread(field_from_order(11), 4, 2),
    "spread-q16-M4-b2": lambda: construction_spread(field_from_order(16), 4, 2),
    "spread-q2-M6-b2-desarguesian": lambda: construction_spread(field_from_order(2), 6, 2, "desarguesian"),
    "spread-q2-M8-b4-desarguesian": lambda: construction_spread(field_from_order(2), 8, 4, "desarguesian"),
    "spread-q3-M4-b2-desarguesian": lambda: construction_spread(field_from_order(3), 4, 2, "desarguesian"),
    "spread-q4-M4-b2-desarguesian": lambda: construction_spread(field_from_order(4), 4, 2, "desarguesian"),
    "spread-q5-M4-b2-desarguesian": lambda: construction_spread(field_from_order(5), 4, 2, "desarguesian"),
    "std-par-q2-t1-M4-b2": lambda: construction_std(field_from_order(2), 1, 2, 4, "par"),
    "std-par-q2-t2-M5-b2-class0": lambda: construction_std(field_from_order(2), 2, 2, 5, "par", 0),
    "std-par-q2-t2-M5-b2-class5": lambda: construction_std(field_from_order(2), 2, 2, 5, "par", 5),
    "std-par-q3-t2-M4-b2-class1": lambda: construction_std(field_from_order(3), 2, 2, 4, "par", 1),
    "std-par-q3-t2-M4-b2-class8": lambda: construction_std(field_from_order(3), 2, 2, 4, "par", 8),
    "std-par-q4-t1-M4-b2": lambda: construction_std(field_from_order(4), 1, 2, 4, "par"),
    "std-par-q5-t1-M2-b1": lambda: construction_std(field_from_order(5), 1, 1, 2, "par"),
    "std-full-q2-t2-M4-b2": lambda: construction_std(field_from_order(2), 2, 2, 4, "full"),
    "std-full-q2-t1-M6-b3": lambda: construction_std(field_from_order(2), 1, 3, 6, "full"),
    "std-full-q3-t2-M4-b2": lambda: construction_std(field_from_order(3), 2, 2, 4, "full"),
    "std-full-q5-t1-M2-b1": lambda: construction_std(field_from_order(5), 1, 1, 2, "full"),
    "from-blocks-q2-M4-b2": lambda: _from_blocks(
        2, 4, [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)], [(1, 0, 1, 0), (0, 1, 0, 1)]]
    ),
    "from-blocks-q3-M3-b1": lambda: _from_blocks(3, 3, [[(1, 2, 0)], [(0, 1, 1)], [(2, 0, 1)]]),
}

PINS = {
    "all-subspaces-q2-M4-b2": "a2de0cbe8c065d06c5ca960dc1d7bd700baffbc39681b3fe8c637c46742a6578",
    "all-subspaces-q3-M3-b2": "f941aab4c4926e861c33c73557f7174cbfb353018a858a214e465976bc026788",
    "all-subspaces-q4-M3-b1": "f259e76ff807d3f5aefe16de0222034f35e1f3ec36d666e38335904594a03cac",
    "all-subspaces-q5-M2-b1": "761b37addbfc326c5dac7d5d65c2a8747e79bfb843b94204f9677466aae76eea",
    "all-subspaces-q11-M2-b1": "9b28ec66f3628d2f79652dd954f133c9d399f236736c7b5ad89b54b3052725a5",
    "all-subspaces-q16-M2-b1": "d5f81ed006afea2f88fea64235ebed1c8c5c91d4bd96c53171287e2a2dfd4448",
    "from-blocks-q2-M4-b2": "37163981a7a4d0c6eff9ea1b5a360b84496d1f1adef7d73da52184be3640340d",
    "from-blocks-q3-M3-b1": "af047960d19e32c6cd75be7f3ffae7435188a1ad26a201be3095a9d166a6a3b5",
    "spread-q2-M6-b2": "0ea7f9b5831592df42d948bdc0e85710dd168c65076f86de0b79f6b039b39c7c",
    "spread-q2-M6-b2-desarguesian": "0f3c44755fbacd582f390005838e856155eb285d213f9619e9acbbd3673193ab",
    "spread-q2-M8-b2": "371f1f5db19d8a408315fe2107c15e2f506dd928ef7b44d1be82550134dadf27",
    "spread-q2-M8-b4-desarguesian": "60d6b4ff70408ed75cbe37d436bb85f82c93af6793cb0975fd2901056f94ad18",
    "spread-q2-M9-b3": "8eb0475dea6699be5996fc01688243a9602960782b7890a6747f9f3d2c4f0642",
    "spread-q3-M4-b2-desarguesian": "6f8fe7c332dd7b7bfa269017554d0781663f7a8e8ee3585e684c7c4b4fb6f40c",
    "spread-q3-M6-b2": "40fd3ef6ca53eaad87504e2fa994fa0a8315cc4469e5e3b977848c43faf4415a",
    "spread-q4-M4-b2": "16bf4292f0f2ae91a7ea7a576c84437e37254c28499456d6c214bfbde3dfc9e2",
    "spread-q4-M4-b2-desarguesian": "6ad09401d728b14059a25d0154f58381e483121123e983a5df24979725b75753",
    "spread-q5-M3-b1": "ff2adb348bc837aa0a4436f07f8267b846fe625252d28f0b62dbb45fafa6d915",
    "spread-q11-M4-b2": "ed384b9e9e789d4cdd1d3b9afdbf48cbbbdf0a3ca193482efb8d6fc765d6365a",
    "spread-q16-M4-b2": "1846fc2b9c6b466df907ed84946658bf0fdbee138330de5466c0cf2df91f5a8d",
    "spread-q5-M4-b2": "301b23e9e9cde053496ac96bf8dab0d0e14af95be0f5d330eeae8c1c497f794d",
    "spread-q5-M4-b2-desarguesian": "398a9cfe20db49fa1e93ccb5b3b80ef8a9a339c6f9d7446727ced073f2129ef7",
    "std-full-q2-t1-M6-b3": "c166902b69a58bea1091bc8099cef9b73a86da9442fdce6dd394d576c1b05205",
    "std-full-q2-t2-M4-b2": "84267370e8caf0c4137e22c4c5a79659902ab6dd216db247f41791b093fab93d",
    "std-full-q3-t2-M4-b2": "a309abdcad5a4e5a860d89047c0a82f07687d45f8dcc6626bf1a02299ad95ed8",
    "std-full-q5-t1-M2-b1": "5544123683c7eae69b3bda26d5023d934e5e19379e6ead3b8e7420d3107873a8",
    "std-par-q2-t1-M4-b2": "28f68a3086dc0b040e1369dbe07b62eefb7d1d3387c435a58e3f104b7c551e0b",
    "std-par-q2-t2-M5-b2-class0": "a8121d1544b203e84ecaba5a3afb799fb91d722e7cb5da8eec5a1db2a73a8fb6",
    "std-par-q2-t2-M5-b2-class5": "4f57d8a8fd94142e398a5da14ca5ddee23a35c52564a46df2e85d1155a8cbf4e",
    "std-par-q3-t2-M4-b2-class1": "edfdd19894980ead7f354d9e43a06bb358addf817eb2e55c34bdd6f7f6e91d22",
    "std-par-q3-t2-M4-b2-class8": "07cc20c7b635aafd35eb5c1c4a4e43b2199e77b92dd69876773a7aad149d687e",
    "std-par-q4-t1-M4-b2": "ddf7518e156343082965be43393897b1be6726f16e2e2296f56744fb71d2f6aa",
    "std-par-q5-t1-M2-b1": "f7715620b535fe266c1a3b5744b99b27b64577c698fbc134741ea653e3774006",
}


def digest(name: str) -> str:
    return hashlib.sha256(format_bundle(LADDER[name]()).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(LADDER))
def test_bundle_pin(name):
    assert digest(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_bundle_reads_back(name):
    code = LADDER[name]()
    text = format_bundle(code)
    back = parse_bundle(text)
    assert (back.field, back.b, back.n, back.M) == (code.field, code.b, code.n, code.M)
    assert back.generator == code.generator
    assert back.subspaces == code.subspaces
    assert back.provenance == code.provenance
    assert format_bundle(back) == text


if __name__ == "__main__":
    for key in sorted(LADDER):
        print(f'    "{key}": "{digest(key)}",')
