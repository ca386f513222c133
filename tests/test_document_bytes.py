"""Result documents byte for byte.

Each fixed request's stdout, with its version line masked, has the
sha256 below, on V-form, H-form and p-norm (p = 1.5, 3) scenes in
2-4D.  Every request runs twice in one process: the second document
mirrors a ball that the first one parsed and cached.
"""

import hashlib
import json
import sys

import pytest

from minksimplex.cli import main

S2 = [[0, 0], [4, 0], [0, 3]]
S3 = [[0, 0, 0], [4, 0, 0], [0, 3, 0], [0, 0, 2]]
S4 = [[0, 0, 0, 0], [3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]
CUBE = [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]
CROSS_4 = [[s if i == k else 0 for i in range(4)] for k in range(4) for s in (1, -1)]

SCENES = {
    "v-2d": {"dimension": 2, "ball": {"type": "polytope-v", "vertices": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]},
             "simplex": S2, "points": {"M": [2, 1], "Q": ["1/2", "-3/4"]}},
    "h-2d": {"dimension": 2, "ball": {"type": "polytope-h", "normals": [[1, 0], [-1, 0], [0, 1], [0, -1], ["1/2", "1/2"], ["-1/2", "-1/2"]]},
             "simplex": [[0, 0], [3, 1], [1, "5/2"]], "points": {"M": [1, -1]}},
    "v-3d": {"dimension": 3, "ball": {"type": "polytope-v", "vertices": CUBE},
             "simplex": [[1, 1, 0], [1, "-1/3", 0], [-1, "-1/3", "1/2"], [-1, "-1/3", "-1/2"]], "points": {"X": [2, -1, "1/3"]}},
    "h-3d": {"dimension": 3, "ball": {"type": "polytope-h", "normals": [[1, 1, 1], [-1, -1, -1], [1, 0, 0], [-1, 0, 0], [0, "1/2", 0], [0, "-1/2", 0], [0, 0, 1], [0, 0, -1]]},
             "simplex": S3, "points": {"X": [1, "2/3", -1]}},
    "v-4d": {"dimension": 4, "ball": {"type": "polytope-v", "vertices": CROSS_4}, "simplex": S4, "points": {"X": [1, 0, "1/2", -2]}},
    "p1.5-2d": {"dimension": 2, "ball": {"type": "pnorm", "p": 1.5}, "simplex": S2, "points": {"M": [2, 1], "Q": [0.5, -0.75]}},
    "p1.5-4d": {"dimension": 4, "ball": {"type": "pnorm", "p": 1.5}, "simplex": S4, "points": {"X": [1, 0, 0.5, -2]}},
    "p3-2d": {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "simplex": S2},
    "p3-3d": {"dimension": 3, "ball": {"type": "pnorm", "p": 3}, "simplex": S3, "points": {"X": [1, 0.5, -1]}},
}

FLAGS = {"verify": ["--theorem", "41", "--trials", "2", "--seed", "0"]}

DIGESTS = [
    ("v-2d", "gauge", "9b19bc01f68da9d54033d2342810608bc98906f0b0362477a9589b1d48a46067"),
    ("v-2d", "circumcenters", "514417a0e914c4b89f4af9ff119aa5425eef6898ccdfb34340391a782de9aa0e"),
    ("v-2d", "centers", "f2c3366ed7efe307522d95a445bbc1a5f6c6802d9dfc4d7277f85d376070c0a0"),
    ("v-2d", "construct", "c12132e6675f1afc6edff525c5616b5fda24c1871b587701c9180e2757b4e3e5"),
    ("v-2d", "verify", "11dfa5f0962336fb354f211b4aa0d27fd3462c8e97ea9eb9ac716adc618e159c"),
    ("h-2d", "gauge", "7a76274a772ac8bfd26c31fdc05111bdfcb17ae5029e62e03fc5579d14eac8b5"),
    ("h-2d", "circumcenters", "90dcce0b80cf0074eabc74a83b6990026a0f141529b35d1d3801ce5d3a4e5954"),
    ("h-2d", "centers", "4d2d55a8d941d040e83ab4e0841b49edda597a791927b03ed460d39b4ef133fd"),
    ("h-2d", "construct", "92c788ae8d6049279a94761431d82e41b29950826248d2f340a3ce368646fdb3"),
    ("h-2d", "verify", "3f79876045e45eedfe5d1d325d40f05e3d638977f4790f60ca1b898aa96a0787"),
    ("v-3d", "gauge", "86fcd40a1c812394196a1bcf387aa468a0c91e92b8591793ec54c2c610f8fb15"),
    ("v-3d", "circumcenters", "618ed22e8ce80bafc6fe4531fce11d8d2dc5230f535a8c044c58473e9a5e2c01"),
    ("v-3d", "centers", "19ac06181ebd59f88d585476fea3007cfbfb082e6c4ef32c2bcf66db1fafb403"),
    ("v-3d", "construct", "6d9bfc3284fdb991fa83f2e0b4dd6a40a8b78a5dc4fe66cb319f4d238b82ca80"),
    ("v-3d", "verify", "5b801206b9947a0a1d88646c75ef15d7aa322b9c39c6ce4c2edbad070b28b938"),
    ("h-3d", "gauge", "16c2a12fe62a650c6f33f23acdb291b1c59efdff68caa04f6d1defe0a33feadc"),
    ("h-3d", "circumcenters", "58fcdee823437bad72bc0c05dd146f7439b6ca2d4b1d10668c18fd01d69e139f"),
    ("h-3d", "centers", "9fa2251d684be8591de631e597e033aa5edfe320bc99c81b12cd4ff612dba11d"),
    ("h-3d", "construct", "8c8fe182b1f49f43fb848b9c9e993804434bcb6a3dc10318f192f70f04986389"),
    ("h-3d", "verify", "2e9e2e10690dccefb8d3ece4929edbdb9ed0f78641d056b8292d67ccc5ae2543"),
    ("v-4d", "gauge", "e40df9ce5277361eb800105ce5275051e65a5b665a562c8e380f680e23118a61"),
    ("v-4d", "circumcenters", "aa1c4c75eefb6cff4b1fb2f457ae172f8708349416e3ec588804ed0350efbe9a"),
    ("v-4d", "centers", "b3e014e5e73e09d8da80c2470d79afb484c66cc348980831e9395c2b3158625b"),
    ("v-4d", "construct", "39b41fd5db0cfd8def382b24f2697af9dbc55e2a13506f01e9162437a81abc1c"),
    ("v-4d", "verify", "7f784a9debdacc9d08fb99b22c0c3b5f1415848686342321b15c5df3d585ae07"),
    ("p1.5-2d", "gauge", "38281500eacd19e01b999de4b17d8afb3b8d79e873d5ece409e4f53477cd0faa"),
    ("p1.5-2d", "circumcenters", "c6f1c7a9b2b593ceefa46ad779e39f611159da13f113dbee8fe428765b64a2f0"),
    ("p1.5-2d", "centers", "d4422e2e7f5d0fd85e09ed75e6ffbf4b2f5b5a858530f32141c9a2958f30d3a2"),
    ("p1.5-2d", "construct", "91bc908df33740c044c19bfc627b8dc6433ee27aa6f000d2db57271c87894a5f"),
    ("p1.5-2d", "verify", "85c73a328ac7e59b5e310da57566a13174af2aa4d33b945aaebdbf3210635a47"),
    ("p1.5-4d", "gauge", "3b66150b0efa1f502bd4aee1b0fd99cb34f31bdd367e40aeb67f5bffe7a8684c"),
    ("p1.5-4d", "circumcenters", "1abdfed37fe7c52081b1d00559a5dec36ddd9f0d0ed3b6656e205f9804eee934"),
    ("p1.5-4d", "centers", "88097821401b9c97080521c92b872100769e166b5c338d0d75394bca15503128"),
    ("p1.5-4d", "construct", "491fb36e2cfae4cbd2d44ccf9e242b8406ae36dd40152803030fd8fcf036598c"),
    ("p1.5-4d", "verify", "47d127145c80b6506f3d287eb620ebc00b7299c9be1a58981dbcf4ca78359d48"),
    ("p3-2d", "gauge", "0f57ac1eac3b064e8e0295ab7a1f609c98acce8cc0a89b840cd589aaaef6c6d4"),
    ("p3-2d", "circumcenters", "88d4cc277e954b4d5b1210e28ae1d294e6657317af0ec1f9c6a4440b3db6e1d5"),
    ("p3-2d", "centers", "c39fe107e3c2c4fa6c6bcf17322355201812986be30cccfbfee4b3f43090a8f7"),
    ("p3-2d", "construct", "2a4b01af1edb367cb78af8f19221a95fdc9688f3c4ee8469e03e1d86318f00b7"),
    ("p3-2d", "verify", "245ede7ee9a86fe01856a4528a11c8e3419f29b5e6c71a9748c400d6ff6f3bfe"),
    ("p3-3d", "gauge", "a323fd4000553d2cbecb2e5960f48cff470917278946e05488f414a22556b9ae"),
    ("p3-3d", "circumcenters", "cd3784e3cfc44090ee8e8cb00106177cc866926a8b260bc9e4b855e87d4faa2f"),
    ("p3-3d", "centers", "11699dea9a72551baa4f3148acbd0b096d74da24c5a8cbed91d87618363dd90f"),
    ("p3-3d", "construct", "2dd2dfee641e14c2e7c06f10f9ee5c316735ca4c7a44375484fe11f1c154ab3f"),
    ("p3-3d", "verify", "2a2a91cb11dd99ac1c34197cd8ce5e1957cc30ea5c0be072864e6ad6cfd5472c"),
]


# from Python 3.12 on, sum() adds floats with one rounding (Neumaier), which
# moves the last digits of these two 4D p-norm documents
if sys.version_info >= (3, 12):
    SUM_DIGESTS = {
        ("p1.5-4d", "circumcenters"): "9473555362e9ccafe42d1d692d0ac722d48111ce4431ce4e9d5bfaf7ee3cd9f4",
        ("p1.5-4d", "centers"): "6618df3dca25dae534799ed52448b5c99a8c21dfd3379c7c554ceac7d9c9e701",
    }
    DIGESTS = [(s, c, SUM_DIGESTS.get((s, c), d)) for s, c, d in DIGESTS]


def stdout_digest(capsys, command, path) -> str:
    assert main([command, *FLAGS.get(command, []), "--in", str(path)]) == 0
    text = capsys.readouterr().out
    body = "".join(line for line in text.splitlines(True) if not line.startswith('  "version": '))
    assert body != text  # the version line was there to mask
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("scene, command, digest", DIGESTS, ids=[f"{s}-{c}" for s, c, _ in DIGESTS])
def test_document_bytes(tmp_path, capsys, scene, command, digest):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(SCENES[scene]))
    assert stdout_digest(capsys, command, path) == digest
    assert stdout_digest(capsys, command, path) == digest
