"""Pinned outputs of the constructions whose grid work goes through
`grid.pullback`, `grid.candy_corners` and `PersModule.composite`:
`construct --method gen4` and `--method min3` with their lines and the
`restrict` of each, and `construct --method candy`, `concat` and `string`.

Each pin is the sha256 of the output files of one CLI run, concatenated in
the order the run writes them; the pins were recorded from the
implementation in which gen4 stretched its module by a loop of its own and
every composite was multiplied out from an identity."""

import hashlib
import json
import random

from persistgrid import Field, GridBox
from persistgrid.cli import main
from persistgrid.io import dump, pmod_to_json, rects_to_json
from persistgrid.sampling import rand_module, rand_rect_decomp

FIELDS = (Field.prime(2), Field.prime(3), Field.rationals(), Field.prime(1009))
SEEDS = range(4)
BOXES = {"1d": GridBox((0,), (2,)), "2x1": GridBox((0, 0), (1, 0))}
GEN4_BOXES = (GridBox((0,), (3,)), GridBox((0, 0), (1, 1)))


def module(seed, box, salt):
    return rand_module(random.Random(1000 * salt + seed), FIELDS[seed % 4], box, max_dim=2, total_cap=4)


def _run(argv, outs) -> str:
    """sha256 of the files in outs after a successful CLI run of argv."""
    assert main(argv) == 0, argv
    h = hashlib.sha256()
    for p in outs:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _construct_and_restrict(tmp_path, method, infile, tag) -> dict:
    out, line, res = (str(tmp_path / f"{tag}.{x}.json") for x in ("out", "line", "res"))
    return {
        tag: _run(["construct", "--method", method, "--in", infile, "--out", out, "--line-out", line],
                  [out, line]),
        f"{tag} restrict": _run(["restrict", "--in", out, "--line", line, "--out", res], [res]),
    }


def outputs(tmp_path) -> dict:
    out = {}
    for seed in SEEDS:
        p = str(tmp_path / f"gen4.{seed}.in.json")
        dump(pmod_to_json(module(seed, GEN4_BOXES[seed % 2], 1)), p)
        out.update(_construct_and_restrict(tmp_path, "gen4", p, f"gen4 {seed}"))
        p = str(tmp_path / f"min3.{seed}.in.json")
        dump(rects_to_json(rand_rect_decomp(random.Random(seed), FIELDS[seed % 4], 1, 4)), p)
        out.update(_construct_and_restrict(tmp_path, "min3", p, f"min3 {seed}"))
        for shape, box in BOXES.items():
            files, candies = [], []
            for salt in (2, 3):
                p, c = (str(tmp_path / f"{shape}.{seed}.{salt}.{x}.json") for x in ("in", "candy"))
                dump(pmod_to_json(module(seed, box, salt)), p)
                out[f"candy {shape} {seed} {salt}"] = _run(
                    ["construct", "--method", "candy", "--in", p, "--out", c, "--line-out", c + ".line"],
                    [c, c + ".line"])
                files.append(p)
                candies.append(c)
            cat = str(tmp_path / f"{shape}.{seed}.concat.json")
            out[f"concat {shape} {seed}"] = _run(["concat", "--a", candies[0], "--b", candies[1], "--out", cat], [cat])
            manifest, strung = str(tmp_path / f"{shape}.{seed}.list"), str(tmp_path / f"{shape}.{seed}.string.json")
            with open(manifest, "w") as fh:
                json.dump({"modules": files + files[:1]}, fh)
            out[f"string {shape} {seed}"] = _run(["string", "--list", manifest, "--out", strung], [strung])
    return out


PINNED = {'candy 1d 0 2': '11bc7517445f2dcff77018492595d8b8a5dc693ac69d74e17e76203e5ccdbefc',
          'candy 1d 0 3': '14b8adca53933114a026081c63e23f6e365161f45b0bf500800e38051d6afb22',
          'candy 1d 1 2': '1452abaae24dc37ee4e5799329aed07f0454d0a1598b903012ed7737ed4a0925',
          'candy 1d 1 3': '975ea9a44c2597b59bcd8febe355fdd3acb64e677543ca505fdf2e48f917677e',
          'candy 1d 2 2': 'ad7e4e2a97ff3643cc6259b754c2af95944d5bd76791c238bb63aca27adf8b37',
          'candy 1d 2 3': '677fb5b237e09b20e2f504fd4c4784bbdf7a9e458988673faf7614edd3cff15d',
          'candy 1d 3 2': '18245ff957d747c644cccd31ad60a622327b8896aa3a694f626e8b9149f40a9c',
          'candy 1d 3 3': 'b6606d1fbfafba2adb0a1d43d8ac7c2d3c47473c051db9128f37aaecd58264bd',
          'candy 2x1 0 2': '20026f185c401a937e088f3230e290f1b561b2c0cec571d28ad69a1e1209757e',
          'candy 2x1 0 3': '69d49cedb5f4dc4ed03c0f433e27f38312a228285c9d56a54ca8955d123a2671',
          'candy 2x1 1 2': '4d92cc0515d83939bd19b5909faa39ce3b8e7d7dab07062e95b15c256ed4dfc6',
          'candy 2x1 1 3': '9d94e91295fbbb0ede4d8f1e77e88c2b30d4c2fe0f31e4d153aa91cb60c76628',
          'candy 2x1 2 2': '91d293c4f05b7f1312709017a1e76423948595fa169078be51d5ea705bd357ba',
          'candy 2x1 2 3': 'd996c6891bbe2dc80eb33cca051e4f1eb57da5df84c9f18fa26991af6b4df6ac',
          'candy 2x1 3 2': 'eca113f4b7d0146276bd6d7d0a9c7cd43e2ccca795be6191a03a3c4367e73ffa',
          'candy 2x1 3 3': 'c94c5bbb93760c229d2372f8eb25704d4bb64ef058f0a710f12b88936947a746',
          'concat 1d 0': 'e65fbf935fae2d915e3e790f9975f619d4479c395587c1760d300deb7d5731ea',
          'concat 1d 1': 'ae76e5284cc184b01f922f048e343b19e418a87892158375c34635388b6d4f9c',
          'concat 1d 2': 'd90f9da741857a73806f571ffaf3e375c7ecd5e30d8889e33e9c369f838bfc75',
          'concat 1d 3': '31c95349babb3e5b2803e23ed6b030823fe25f38849b0bc3921fe8dcd6a39aef',
          'concat 2x1 0': '0f380a1bfa9cc3c6a77452dd326979a4abc8e87484cc7550bbc896ea70626589',
          'concat 2x1 1': 'd1cb6a183386a9bca139ebc1257ca918954001baa7be2dc90a85d496f4bbf6b5',
          'concat 2x1 2': 'fc40dc582091b52c274a27c8afe0675b444e74b5e4574556f94ba99312165232',
          'concat 2x1 3': 'faa6ccc15a494fe51721e88a2919b365e72b1da2ca680dab79d9ac0dce4be301',
          'gen4 0': 'acd26a1293698f47cee0467324424f2aef0604127dc0b1f6ed819a862ea258d8',
          'gen4 0 restrict': 'ec81435a9f7baad0f935a08562166d32d3d10853c55230c965ea3d4416302008',
          'gen4 1': '723c9e8cbdb360e6196a076ea48fedafd862b2404caf04210f59d285eb384818',
          'gen4 1 restrict': '5e206e318f2edd17b648f40aecb8c7f8ab1254ee19cf83a65e0de02b810240a1',
          'gen4 2': 'a23d6b731f5520e4364479bdb91327afd358798b45740ac35b92e699b657ffec',
          'gen4 2 restrict': 'adc3c0269f2ac8dab6db95855f78f490f38a65bfde752197f7bc8a15dbb6e3a8',
          'gen4 3': '0e6e7e13d56b7f55317947406909b6c2076f6aaa9d5ec7d331cf6d1150a4eebd',
          'gen4 3 restrict': '3208c5537595fd3a399cad25205bf047d69466b27b058b85b02e3386369eab37',
          'min3 0': 'd7ead96c0f7842cc0c5d7c28b4b123b47c94fb792026ee97d0bec875a39338b5',
          'min3 0 restrict': 'b5f9a980a1a9de33a8d9f2c0c46134796972bcf171fa69ba727666acb633ff44',
          'min3 1': '5d3ab5004955b5f35fd743e7a5ea8ed012c19c57c19dc2ad83314a9fd993b2df',
          'min3 1 restrict': '9016fe02a69d1d6d8a44aafbcf7e363c83b2c70fb6936176b841bbae1927d8a6',
          'min3 2': '1250d1f900ed99d01c2897c72f0c21d8f73cbb706b98c62c9bc1cf8412f32d01',
          'min3 2 restrict': '7dc605f4ba1599b79aaf6b648f45cd7fa9fa103c22376165c2819b95907e6fb9',
          'min3 3': 'b9d34018f7098db673acfe4b54eb1fe2c2df796cba3306bded926abc973c5778',
          'min3 3 restrict': 'beab1bb59041decde05f85b38064535fad3c1de497145573a0c33f1fcd539240',
          'string 1d 0': 'f4e08f60822bb2134e966b75ce82770b53a50269b47235fc5de3c8ab4d10cded',
          'string 1d 1': '57fd9135e030843b383a3c2a0f4a606530acce116729bbcb61eb36a59d7e9bfc',
          'string 1d 2': '94f53c8f24ab6f9f9a94514bf6b845adf480309ad307e8cd15e6b7e13e9c8461',
          'string 1d 3': '1ed901a0dfe6b89da79ef6592c4d5ae8fecf7393bfa8cbc069175a4ea8f33153',
          'string 2x1 0': '97872b8b65453a41b2380e22d57072877b4b107e844cc5f4e8218b9591bd5e92',
          'string 2x1 1': 'e557d0379709ea643e2e9ee6489bdbbb94a92a8a9d234b24add9e064fe36fa24',
          'string 2x1 2': '5b10df20894858f8e701544cd059f6c73120ca93eabb36ca400136a896a50294',
          'string 2x1 3': 'abeafb6ccd10b4dc2cb6272fbd45bc8b1ffc8a4d165f91cc4a9500c1125f3f54'}


def test_construct_outputs_are_pinned(tmp_path):
    assert outputs(tmp_path) == PINNED
