"""Pinned outputs of `construct --method gen4` and `--method min3` with
their lines and the `restrict` of each, and of `construct --method candy`,
`concat` and `string`.

The library builders return each construction on its corner grid, and
the CLI writes it on its coarsest grid (`grid.coarsen`).  PINNED holds the
stacked layouts the corner grids stand for (each output pulled back along
its grid's floor, with its line in the paper's coordinates; for a candy,
the stacked S' and S'' glued along their copy of V), written as
the CLI wrote them before it coarsened; it was recorded from the
implementation that built the stacked layout itself, in which gen4
stretched its module by a loop of its own and every composite was
multiplied out from an identity.  `string` is not in PINNED: it
concatenates the candies on their corner grids, so it has no stacked
layout.  PINNED hashes the older PMOD form, one record per step, written
by the tests' oracle writer.  COARSE holds the CLI's files, which are
version-2 PMODs, and COARSE_V1 the same files with each module re-encoded
in the older form: the digests these files had before the CLI wrote
version 2.  Each pin is the sha256 of one run's output files, concatenated
in the order the run writes them."""

import hashlib
import json
import random

import pytest

from persistgrid import Field, GridBox, candy_wrap, concat, gen4, min3, string_candies
from persistgrid.cli import main
from persistgrid.grid import coarsen, pullback
from persistgrid.io import (candy_from_json, dump, line_to_json, load, pmod_from_json,
                            pmod_to_json, rects_from_json, rects_to_json)
from persistgrid.sampling import rand_module, rand_rect_decomp

from oracles import candy_to_json_v1, pmod_to_json_v1
from test_coarsen import fine_box, line_keep, paper_line, stacked, stacked_candy

FIELDS = (Field.prime(2), Field.prime(3), Field.rationals(), Field.prime(1009))
SEEDS = range(4)
BOXES = {"1d": GridBox((0,), (2,)), "2x1": GridBox((0, 0), (1, 0))}
GEN4_BOXES = (GridBox((0,), (3,)), GridBox((0, 0), (1, 1)))


def module(seed, box, salt):
    return rand_module(random.Random(1000 * salt + seed), FIELDS[seed % 4], box, max_dim=2, total_cap=4)


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _written(*objs) -> list:
    """The bytes io.dump writes for each of objs."""
    return [(json.dumps(obj, sort_keys=True) + "\n").encode() for obj in objs]


def _reencoded(blob, write) -> bytes:
    """The file blob, a PMOD or a candy (or string) file, with its module
    read and written again by write."""
    obj = json.loads(blob)
    if "module" in obj:
        return _written({**obj, "module": write(pmod_from_json(obj["module"]))})[0]
    return _written(write(pmod_from_json(obj)))[0]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _run(argv, outs) -> list:
    """The bytes of the files in outs after a successful CLI run of argv."""
    assert main(argv) == 0, argv
    return [_read(p) for p in outs]


class Runs:
    """Every pinned run, made once: the stacked layouts of the builders'
    outputs (fine), the CLI's files (coarse), the CLI restrict outputs with
    the input files, and for each CLI file the builder's module it came
    from with the (line, box) pairs it keeps."""

    def __init__(self, tmp_path):
        self.fine, self.coarse, self.files, self.restricted, self.inputs, self.pairs = {}, {}, {}, {}, {}, []
        for seed in SEEDS:
            p = str(tmp_path / f"gen4.{seed}.in.json")
            dump(pmod_to_json(module(seed, GEN4_BOXES[seed % 2], 1)), p)
            V = pmod_from_json(load(p))
            self._construct(tmp_path, "gen4", p, f"gen4 {seed}", gen4(V), V.box)
            self.inputs[f"gen4 {seed}"] = _read(p)
            p = str(tmp_path / f"min3.{seed}.in.json")
            dump(rects_to_json(rand_rect_decomp(random.Random(seed), FIELDS[seed % 4], 1, 4)), p)
            R = rects_from_json(load(p))
            self._construct(tmp_path, "min3", p, f"min3 {seed}", min3(R), R.box)
            for shape, box in BOXES.items():
                self._candies(tmp_path, seed, shape, box)

    def _cli(self, tag, argv, outs, fine, lines):
        """Run argv, pin its files and the fine outputs (if any), and keep
        the files and the pair."""
        self.files[tag] = _run(argv, outs)
        self.coarse[tag] = _digest(self.files[tag])
        if fine is not None:
            self.fine[tag] = _digest(_written(*fine))
        obj = load(outs[0])
        self.pairs.append((tag, pmod_from_json(obj.get("module", obj)), lines))

    def _construct(self, tmp_path, method, infile, tag, res, box):
        out, line, w = (str(tmp_path / f"{tag}.{x}.json") for x in ("out", "line", "res"))
        grid = res.meta["grid"]
        paper = paper_line(res.line, grid, box, [res.meta["s"]] + [1] * (box.n - 1))
        self._cli(tag, ["construct", "--method", method, "--in", infile, "--out", out, "--line-out", line],
                  [out, line], [pmod_to_json_v1(stacked(res.M, grid)), line_to_json(paper)], (res.M, [(res.line, box)]))
        self.restricted[tag] = _run(["restrict", "--in", out, "--line", line, "--out", w], [w])[0]

    def _candies(self, tmp_path, seed, shape, box):
        files, candies, mods, fine = [], [], [], []
        for salt in (2, 3):
            p, c = (str(tmp_path / f"{shape}.{seed}.{salt}.{x}.json") for x in ("in", "candy"))
            dump(pmod_to_json(module(seed, box, salt)), p)
            V = pmod_from_json(load(p))
            C, F = candy_wrap(V), stacked_candy(V)
            self._cli(f"candy {shape} {seed} {salt}",
                      ["construct", "--method", "candy", "--in", p, "--out", c, "--line-out", c + ".line"],
                      [c, c + ".line"], [candy_to_json_v1(F), line_to_json(F.line)], (C.module, [(C.line, V.box)]))
            files.append(p)
            candies.append(c)
            mods.append(V)
            fine.append(F)
        # the CLI concatenates the coarse candy files it wrote
        cat = str(tmp_path / f"{shape}.{seed}.concat.json")
        read = concat(*(candy_from_json(load(c)) for c in candies))
        self._cli(f"concat {shape} {seed}", ["concat", "--a", candies[0], "--b", candies[1], "--out", cat],
                  [cat], [candy_to_json_v1(concat(*fine))], (read.module, []))
        manifest, strung = str(tmp_path / f"{shape}.{seed}.list"), str(tmp_path / f"{shape}.{seed}.string.json")
        with open(manifest, "w") as fh:
            json.dump({"modules": files + files[:1]}, fh)
        # the string concatenates the candies on their corner grids: it has
        # no stacked layout to pin
        S = string_candies(mods + mods[:1])
        self._cli(f"string {shape} {seed}", ["string", "--list", manifest, "--out", strung], [strung], None,
                  (S.candy.module, [(e, V.box) for e, V in zip(S.embeddings, mods + mods[:1])]))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return Runs(tmp_path_factory.mktemp("construct_outputs"))


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
          'gen4 1': '723c9e8cbdb360e6196a076ea48fedafd862b2404caf04210f59d285eb384818',
          'gen4 2': 'a23d6b731f5520e4364479bdb91327afd358798b45740ac35b92e699b657ffec',
          'gen4 3': '0e6e7e13d56b7f55317947406909b6c2076f6aaa9d5ec7d331cf6d1150a4eebd',
          'min3 0': 'd7ead96c0f7842cc0c5d7c28b4b123b47c94fb792026ee97d0bec875a39338b5',
          'min3 1': '5d3ab5004955b5f35fd743e7a5ea8ed012c19c57c19dc2ad83314a9fd993b2df',
          'min3 2': '1250d1f900ed99d01c2897c72f0c21d8f73cbb706b98c62c9bc1cf8412f32d01',
          'min3 3': 'b9d34018f7098db673acfe4b54eb1fe2c2df796cba3306bded926abc973c5778'}

# the restrict of each min3 output in the older PMOD form, unchanged since it
# was pinned from fine outputs
MIN3_RESTRICT_V1 = ['b5f9a980a1a9de33a8d9f2c0c46134796972bcf171fa69ba727666acb633ff44',
                    '9016fe02a69d1d6d8a44aafbcf7e363c83b2c70fb6936176b841bbae1927d8a6',
                    '7dc605f4ba1599b79aaf6b648f45cd7fa9fa103c22376165c2819b95907e6fb9',
                    'beab1bb59041decde05f85b38064535fad3c1de497145573a0c33f1fcd539240']

COARSE_V1 = {'candy 1d 0 2': 'fc04e0f4ae66c2df4fdd2570960565eb72c5f1f94f2d37031df4ffccac6e0111',
             'candy 1d 0 3': 'e588c34411824130c12b94fefe4e31ec757cca93a8c9a4c9b3ac5b112b1d9de0',
             'candy 1d 1 2': '94d83a699c44449954d433fee033644a12e6d1e7f0984bd88d5cd0a2851c452c',
             'candy 1d 1 3': '100f497f417dd76306bc9bf5b63e009c3d98f4c3315ed92f9b0c1af168af1fa3',
             'candy 1d 2 2': '333ce4394e2b3f28f6c3c521c853a75853a911aae69d034caa7ab898ca8fc92d',
             'candy 1d 2 3': 'f692c7b4946646080301e92cca7a15420229271060d1e05ca5b9d8422882d91e',
             'candy 1d 3 2': 'b393fb5d8acf802979e318085e678b05b1bf40992a22031d78372e5af4d5848b',
             'candy 1d 3 3': '92c205734aa1c7e965ffecc1c8c0e8c0d0930f561c8e5757b20c6ba75fe7000a',
             'candy 2x1 0 2': 'f7bdf0d0be61ae572bca29d1cf8e94f420885034397f9c905a435295d39a9a72',
             'candy 2x1 0 3': '792081b6685eff3647b22205aceb7168f15092a41078faa1212890ca8e1fe002',
             'candy 2x1 1 2': '494e98f8a69ece20742f8acc9b5bb35fac1937adca86cc2ed13c26475e817482',
             'candy 2x1 1 3': '639e3bb1674eceaaa2a992e107b3010f562f8ff2ffdfd27b45b73b5623d04f0d',
             'candy 2x1 2 2': 'd69ece7b7a5e8dc2de7acefa2e55ed287f2da8d88061761e9eb71434c1dc27ec',
             'candy 2x1 2 3': '9154337137af97f9fa128b8c72655ff42e4b76fadf4cd02abc4059787d33c70c',
             'candy 2x1 3 2': '96d2c5c3e855ed4ef72bf0932af92042ac86e4a9715801656a5a201c2343a759',
             'candy 2x1 3 3': '519eeaae90e740096d93b369ff6b1505f0886972610640f082c40a8259eb5c59',
             'concat 1d 0': '63e8fc950bcf1a6224cc4bafc8c2f53cd88f9b86ece2f01d45d2302a328b03f8',
             'concat 1d 1': '71bc1497da378cbadcbd061404a9bca4721df94712bcdd7a8f70087e49c959a6',
             'concat 1d 2': '4c040b0aeb31bf3fc6cc3b61b0e474d2eab7d7141d46b1dab8221a56657ad354',
             'concat 1d 3': 'e75008ad185a1b44b03496613b5a1903df95fefd40104de7ea374523e54da47c',
             'concat 2x1 0': '60c66e86c31c997a7bf3f2f99149a9ba6b9e929c4f336d9006091ecc4f409d5d',
             'concat 2x1 1': '235c92cd9420407b02126df780aa236d34c27b72bb57b47032a5dd43504253e8',
             'concat 2x1 2': 'a73c31b4396dba74cbd1629d053dc975d45894870981d26a854c6eacf1cdbc7b',
             'concat 2x1 3': 'f6388ded6e479daf15c593014776641e066b7bd3a83c81e120505b2135ee4c57',
             'gen4 0': '05bfda1a5578ff533eee32df7ee621dade7d316c3ddea50e7b3bc2ec70688f64',
             'gen4 1': '4924e1ea467ad66f64d378618dd9e9d91c79233db7fce864422b540e618cb151',
             'gen4 2': '615902e688d28d05913c5749da9ee106369590276ecfe6d88c218f5f5005cee5',
             'gen4 3': '3e870697bc1d1cae250e6f6754e2c0c419cd8cce6cbd7fcda9267afdc9415e14',
             'min3 0': '46c9519c81c2b62878782964838783ad647085fec6708510eb59fbb576e9ae7a',
             'min3 1': 'ad05bfbf71b409751b546cc53e6994c9ede17a46b1f30ba3e0ad207a531e4b1f',
             'min3 2': '0039af0a274676f238b7fbca3053434dd0c97bfb1752019e298fa6e8734976d0',
             'min3 3': '9e3879e652579e2f41c3e96c6a2145f511e0cc13479e7401147de14d1a6d5706',
             'string 1d 0': 'cf6af57313403e6efd1e01a44a96dacaaffbe21dc957368c7eaf8df7b2740628',
             'string 1d 1': '9ebd22763c747439eed78bf62ca1de8c74e674a164026b57f3463ebe3270c95f',
             'string 1d 2': '539376fb0972a4013ea80c01cc799a692a4684af5050e59713628e18ce60415e',
             'string 1d 3': '75fbbd63efa600a7979c71da7daebc0de3351b7a538d88e3fc4148e45806a177',
             'string 2x1 0': '3e5bbf2e3b5ae2792ba0a205a15efe7b0480e081037e084b129335cd360b7f81',
             'string 2x1 1': 'c8a0eac9c11f210ef5cc5f0f4887c55028c321b464bfcb5c7c2112b53e7f2b01',
             'string 2x1 2': 'b665ce2ca68f0facda70737741f5cf1cbf89129793f60c3b4e7debbb99c892f4',
             'string 2x1 3': '2fec4a59682a50761c22066f3df8887d06999ddda8d3df12bfd4f8b47993ea50'}


# the same files as the CLI writes them, version-2 PMODs
MIN3_RESTRICT_PINNED = ['d1c868478fcf48ec13ac401df340fddddd1abafcbedaee6949ae07167d089fbd',
                        'a3e3a0c9063b203281d44bce7c6231db350410e686400039dab55b1c4a9c34c5',
                        'f1bd8ba2e3e62ab9c28d45dcde0dfd7efc14a7ca8a4898d3a60bbee3f96daa6d',
                        'a2f99677d13d1d0721f4faf531e682e3b1f0feff8b1969f33f788e68411707f3']

COARSE = {'candy 1d 0 2': '3f454fec97c132147abad304902721735c439b2378874e291b87d9da96788de6',
          'candy 1d 0 3': '85dc98cf008e0d043683a77d79e321c7235d88156c89f04bd05e30e92c53dffe',
          'candy 1d 1 2': 'e9c7001400f1416b3e3e5acda7fe45e196e331fdc990a75a6c28702173e09018',
          'candy 1d 1 3': '4a969aba1aa900bd8cb94b2668c455774343438e29f501c8d19accc7351b7a0e',
          'candy 1d 2 2': '15188754e9042db6abc0a14c2f3133ceaa879007f0906897ab5f8af562971e0a',
          'candy 1d 2 3': 'ed0f91000935f95ca32f44516c0dfbc530b657e044d005fceb73003cc30102c6',
          'candy 1d 3 2': 'f13c6e6543c77e49dc2c013c316ba4e681d62907a7341b51b48903806f88563c',
          'candy 1d 3 3': 'a67b97d6286b660593fb05568bdabec40781734548d62f352ae279ae7f6e2649',
          'candy 2x1 0 2': 'd47df28d4801cdfd09caacef074f27199e9543654f88beadfc941de374e755d7',
          'candy 2x1 0 3': '567f6d5be27962fdd365c1cb0da90dcfa22f7eaefd8b1fb7c32adb600eec3f53',
          'candy 2x1 1 2': '7791c884e644b313cb9fab01a296668d6dc10f21dfc1a86c4cd81a1fa3221f7c',
          'candy 2x1 1 3': '8685223714ad95064bc85ba213c7616c6d032b6e9a5b51e266ecb18fe66cb735',
          'candy 2x1 2 2': 'e85ab78f5f03c3d684842aea0bee2c142d877fc40aa713112a3e3cc53d1d5214',
          'candy 2x1 2 3': '0814f43f951a9407d0ec4427b34b67bf389ede51e49b3ef71d147bd6d922a0d0',
          'candy 2x1 3 2': 'cc8f3bc80f0255d2cbd865c9e1c170a010eb3cb1df3fbaccd22f681d61825d5e',
          'candy 2x1 3 3': 'cf302089ab65e8c7c6a8709ca48c52a2935abe41247c0bc09dee5f6d107ab40f',
          'concat 1d 0': '83870e6ff3a4628e3d3529536c34e3c9e9f4eb3158249cd23b4311175250eead',
          'concat 1d 1': '93155eb9c5d918cfb4052c03dca5d97eaf86a005b2dfa649dfbacbc73e8ce859',
          'concat 1d 2': '831d13e05bbc57504fb236d24fea0eb22de23808bd5c20667821f3596e0897a1',
          'concat 1d 3': '341658732e13ee032a52059702e3fd079a5b3265ea0c288755d79557f7681080',
          'concat 2x1 0': '4932303b585fbbde13f62d8684e55242b2724af90814a9aa5426e13af8a1c1c8',
          'concat 2x1 1': '37dabeb14be37d35c8fd64fe40d9206f59a8a71385ce0929d048d4720b0b36a5',
          'concat 2x1 2': '1dfcdf18548693b5683a04fa894f27531b75682794ffa058685ad5458be0a2be',
          'concat 2x1 3': '413faf1f76e82ea4d5ec17fcdc849fcc05d97b6a9e1b6b2cf39ee0ed0ab7c2d6',
          'gen4 0': '82a2ca6fdf2e5236464a34addcd4cc8e7a7e95733c8a5fed98d562b95e1938eb',
          'gen4 1': '5fac073558786e2172fbcb54bc58fd267bd9fc6b9c46fc1bd7836435143766d0',
          'gen4 2': '123592461c992f18f15fb33eaafb4c55ec928a7ad2308129462d282b8e5cdec3',
          'gen4 3': '0436094055e13326c6eaddfe8017c5f03eed974b04e0624b5605274d8232400e',
          'min3 0': 'ec752b4c0266dd4a657a4ac0089e0630fe7557d15d03a284067d988bae32ef62',
          'min3 1': 'f7a062de95623af4d072853dfa40887b7e7cd5e90a7ddc1e371d2a2559ed4297',
          'min3 2': 'c65e69878fb7c6d42acc8b19cf2047fc074b5725d2d79f5eb1573e12bf2ab70a',
          'min3 3': 'ffff5c187a6db5717df6c5a8a2ffbd2d6c4b9e2be9bab55c2e894d15678d29ff',
          'string 1d 0': '159d0f84d2ded56302cd5896f259c1f2017bf7fd227db2b4a8fdd08434ae5b5e',
          'string 1d 1': '6b356e07dbf6dd78d29c416f812a314042004383bf91b97763d5ff3061c34e92',
          'string 1d 2': '38c1c993b9eeb1bba3e906c42fba03fb977dc4353a60901885798cda83a24c95',
          'string 1d 3': '64fac2c0dd73efa04d450a9bdd2c6d2b95bd7a0074491f112d6713b5dc606f3a',
          'string 2x1 0': 'd4d0fdebea6dc32d74cb43b79612070d1184358e6d0245079486f7bcb510f98a',
          'string 2x1 1': '10bc9dd0b647f8611c185efe19bdf2795f30bf3f8c3987d085a3ab69163ee724',
          'string 2x1 2': '0eb7a891726fed71f31f61a9f345a559bb32a532d9294fe1fe9837f4d3e2b51b',
          'string 2x1 3': '714ee0feab9575a99d9d8b70e54157ac841d51df6c18cb1be207136fe623cda3'}


def test_construct_outputs_are_pinned(runs):
    """The stacked layouts the library builders' outputs stand for are
    unchanged."""
    assert runs.fine == PINNED


def test_cli_outputs_are_pinned(runs):
    assert runs.coarse == COARSE


def test_cli_outputs_in_the_older_form_are_pinned(runs):
    """Each CLI file, its module re-encoded by the oracle writer of the
    older form, has the digest the CLI's file had before version 2."""
    assert {tag: _digest([_reencoded(files[0], pmod_to_json_v1)] + files[1:])
            for tag, files in runs.files.items()} == COARSE_V1
    for seed in SEEDS:
        assert _digest([_reencoded(runs.restricted[f"min3 {seed}"], pmod_to_json_v1)]) == MIN3_RESTRICT_V1[seed]


def test_cli_outputs_are_written_again_byte_for_byte(runs):
    """Reading a pinned output's module and writing it again gives the same
    bytes: the version-2 writer is canonical."""
    for blob in [files[0] for files in runs.files.values()] + list(runs.restricted.values()):
        assert _reencoded(blob, pmod_to_json) == blob


def test_restrict_gives_the_input_back(runs):
    """min3 restricts to its pinned 1D module; gen4, built from a PMOD,
    restricts to the input file byte for byte."""
    for seed in SEEDS:
        assert _digest([runs.restricted[f"min3 {seed}"]]) == MIN3_RESTRICT_PINNED[seed]
        assert runs.restricted[f"gen4 {seed}"] == runs.inputs[f"gen4 {seed}"]


def test_cli_files_pull_back_to_the_fine_modules(runs):
    for tag, coarse, (fine, lines) in runs.pairs:
        grid = coarsen(fine, line_keep(fine.n, lines))[1]
        assert pullback(coarse, grid.floor, fine_box(grid)) == fine, tag
