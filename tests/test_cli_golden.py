"""Golden CLI output: the sha256 of stdout and the exit status of every
`hg` command on each named hypergraph, and of the `pba`, `trunc` and `op`
commands on fixed inputs, and the `--help` text of every subcommand. The
digests pin the byte-identical output contract, so any change to face
order, text or numbers fails here."""

import hashlib
import io
import json
import random

import pytest

from hgpoly import Hypergraph, cli, constructs, corpus
from hgpoly.operadic import parse_tree

COMMANDS = {
    "faces": ["hg", "faces"],
    "constructions": ["hg", "constructions"],
    "hasse": ["hg", "hasse"],
    "fvector": ["hg", "fvector"],
    "hrep": ["hg", "realize", "--hrep"],
    "vertices": ["hg", "realize", "--vertices"],
    "verify": ["hg", "realize", "--verify"],
}

GOLDEN = {
    ("2-simplex", "faces"): (0, "060c11d346f29d802d73b111f277f0f5b4884360764f5a0da88c166e1efa0e8a"),
    ("2-simplex", "constructions"): (0, "a33827aa58b7f7cfcfd883809f6674d50341e84177d3289540f039f61ca7be09"),
    ("2-simplex", "hasse"): (0, "53f627ed114ffa278664617190b0ce795c8417c71a5028aacbb7b7cffa8bef8f"),
    ("2-simplex", "fvector"): (0, "cc4e8f94211a0d8784cd9f6edda901990f28634b8167e5849271d01b815b3407"),
    ("2-simplex", "hrep"): (0, "f2ab9990bffe6b5ae8952ae49a6b5b6458cf384c57b1920fc8d0938ff8c54765"),
    ("2-simplex", "vertices"): (0, "979b62fed5b3dfe69d7c5bdf5d067ff3297d5bacc4055ac4c9481945dc355063"),
    ("2-simplex", "verify"): (0, "db6ba97fe7ff7738b5f6ac387e756f6cabecaa78ab6bb83371d5f252bba0e386"),
    ("3-simplex", "faces"): (0, "c5dc545a8822fa7340f444d4f0984ffb8ee882a9b643782fa9a040595aada60a"),
    ("3-simplex", "constructions"): (0, "57f9bedbd526caff04b972d1556f246367af372d41caa16c86c2d1edff220fde"),
    ("3-simplex", "hasse"): (0, "2b26dfd5d6c3c091f530b68bee64ff86f8f690219de9cd3e8536c7e258f5fa53"),
    ("3-simplex", "fvector"): (0, "a0d3b446404a23864d6ae06e0ae06c0e11914f135d76aeb14b7f62549f59cb00"),
    ("3-simplex", "hrep"): (0, "50363c010ccc396ff59e0cbe30a1a5506971f778509b2216fa64229d08889f60"),
    ("3-simplex", "vertices"): (0, "88c12295c2bbb8989602399d9e8e2b9838f1dbf2923fa708cebd3d45bcce4cbc"),
    ("3-simplex", "verify"): (0, "36e37b0a0f979bb1725f41215e2c430a598f8fe7e398eb976e07b32390d6a67d"),
    ("pentagon", "faces"): (0, "afadee31ca952b84cbbbd115de52967ae5abc4981c3428c37536d199466ffd21"),
    ("pentagon", "constructions"): (0, "ccc9bf0c08f3b142154ac45bb03862cfd230b5a939c06447d16d70de8edbe053"),
    ("pentagon", "hasse"): (0, "71bd51765d8d935d2e986d8869524df320ae02590ecb0bb94c583c2f858e8e8d"),
    ("pentagon", "fvector"): (0, "b47731671fb154ae91847fc531b2a471604950a292258c7dedfb300eaf24cf64"),
    ("pentagon", "hrep"): (0, "1c5c5ebbd33c611950931c38657039e7183a4ccb6d71f7bb3d48958fe7c914ed"),
    ("pentagon", "vertices"): (0, "4be7a9a84f117aa66705003d2bbc166d5338088a8df3a5f0d9a6feb4b99c03e2"),
    ("pentagon", "verify"): (0, "c6b96c43c7af87742fd7e3caf170b158e80a63a7f7df13092a1193b748394c27"),
    ("hexagon", "faces"): (0, "639eff563c501c26c1c036d67f6391ea142b5cd683c8fa1f89713912d1a59bbe"),
    ("hexagon", "constructions"): (0, "fcba36b8cc7f4668428a7f8cde873654bcaed1866fa47348894551ffc0e1310a"),
    ("hexagon", "hasse"): (0, "9302fa65f5c66640c4b21ee7f1d5b2bb12a240042a85231f43bb241511989acb"),
    ("hexagon", "fvector"): (0, "30454ee944200fd30da3139346ab86ab0b3a9f090fd7132ea5f66617d2b548d8"),
    ("hexagon", "hrep"): (0, "0f27c034bae77b4d4d94eb1a0288ad3550371eb5a4e0626abb1ed7db99a07afb"),
    ("hexagon", "vertices"): (0, "e36e34fa033f7c30ee09f70d4b29488f3765ab5576a6695758e28799d014a7e1"),
    ("hexagon", "verify"): (0, "94613acfa9670929ed27915b54596332ff55ffc1e04f1f811b46758104f298fd"),
    ("3-associahedron", "faces"): (0, "d6a3e1458c153ccce92749db38d3c133aba1e3661140fd6bca36155731ead9a8"),
    ("3-associahedron", "constructions"): (0, "7bff82ad15edc7c43b50728f0911fdfff29366975c22d7127dc28b6ce9ffce5e"),
    ("3-associahedron", "hasse"): (0, "0c3e466f1e7c068d7f4e56b30e7892b2686436b5bfaa2afb2fb399128a135f72"),
    ("3-associahedron", "fvector"): (0, "4237745478916a1324552c314d39ef362f82ce532866eb54873286abe54e7446"),
    ("3-associahedron", "hrep"): (0, "10b6ffb6aa518740e76e2ec88bf6598857daee533b9cbf20444d4ab313a48a0a"),
    ("3-associahedron", "vertices"): (0, "f41d196904c67d6ed82bd3793018f40cfe48ad32636ca0fa637488ed32d3583d"),
    ("3-associahedron", "verify"): (0, "6958d60907cb6adcd1455b80e487bee134ef872c10bd8367f529336efc77d58a"),
    ("3-permutohedron", "faces"): (0, "aa5ae10711fa9350b13a221db7835e253e978b9002494817c8bb7db4f2a2f395"),
    ("3-permutohedron", "constructions"): (0, "412c4cbe5aedaf927b3e458bb24ffaa2e74c90eefdea3b20567376b44e6305cb"),
    ("3-permutohedron", "hasse"): (0, "b335e289886f88e43ca8e17d58979e72859c649c6387c66b3b3a231c545bae4a"),
    ("3-permutohedron", "fvector"): (0, "93fcbc471a18a3b2862dc2386dbc83425d0608a542a91f6921fa0852aa5855b6"),
    ("3-permutohedron", "hrep"): (0, "c30f5c25e822f67879021daf1bd5751f66da66f16584b40c1e0d220b6ef5d9e1"),
    ("3-permutohedron", "vertices"): (0, "06813184a59beb4d6ee9c3bdd691e7c0ffa22b14313893c645d69ec33b664395"),
    ("3-permutohedron", "verify"): (0, "8963e2290e377c4461e9e813163d17e13c91f5cec8ee56fedccb03a72ceec9d6"),
    ("3-cyclohedron", "faces"): (0, "324d3e463ee127ec9b8c0b3593de644bf5aebda3282431743fb1294ddf5f40bf"),
    ("3-cyclohedron", "constructions"): (0, "73797d7e93eb2137297def77777d7ee9b7d30693084fb4d4591a1e6892ec3cb5"),
    ("3-cyclohedron", "hasse"): (0, "cb9358d69414e2c9ece135b0d12a9a6e7fa5c71cc7969d75766d7c5118dbf7e8"),
    ("3-cyclohedron", "fvector"): (0, "e4572c58b990ecb814a76e965a8094a7e314e8b69c70a1730becd61cdf55412f"),
    ("3-cyclohedron", "hrep"): (0, "8b14bb5a55abf47061873fb913044d82206f3d05b0d5b5f3919fdc9f03e485ae"),
    ("3-cyclohedron", "vertices"): (0, "471036d625a968fc3180b915fff0fab4353d6f36938e8510c6c18d8f0fda568d"),
    ("3-cyclohedron", "verify"): (0, "d592cee6f9c3ff12677a91fbc3e1cf221def87dd7741055ec03cf259d15f06c4"),
    ("vertex-truncated-2-simplex", "faces"): (0, "8ea8599d2101da15fc411750d14fcd98030396860af445b6bbe7496c653c6ea7"),
    ("vertex-truncated-2-simplex", "constructions"): (0, "ddb8d8b0c2401b5b6e1ce48b96a5fb320cee826cc18e80b4f3ddce859cad3f9b"),
    ("vertex-truncated-2-simplex", "hasse"): (0, "d965b87cb06d857266f4310b467d298f848d5755d82598c274e01d95a55602e9"),
    ("vertex-truncated-2-simplex", "fvector"): (0, "d44baeb248a0e20a9fa4e425cffd8e321a64a8644aabdcca2afbf77e97f8bc1f"),
    ("vertex-truncated-2-simplex", "hrep"): (0, "73ccd5edff2716ae89b05dbbd74e029a73183856afe606f10e1d242058cdaa47"),
    ("vertex-truncated-2-simplex", "vertices"): (0, "b038cbb73da1abded5122590dedce39053fe631bf0b199c122c62de99681d20a"),
    ("vertex-truncated-2-simplex", "verify"): (0, "89cb8b7c46c27eeeba1c02737112a54099e851046cc80e130edb1dccd3e4346b"),
    ("edge-truncated-3-simplex", "faces"): (0, "5b4d1488d8bab4adcc64aba0337cf267f4b74f357ba80ade72969385bcc309f4"),
    ("edge-truncated-3-simplex", "constructions"): (0, "50c6c13d71b44cf24ae04ae327553bb69f0879bc45bacb36ab66de4f7d66eec2"),
    ("edge-truncated-3-simplex", "hasse"): (0, "f6f660f9d0192352b4dc2d90ddf70891ec57435f35abf6bb2c98e6eb80f13cdb"),
    ("edge-truncated-3-simplex", "fvector"): (0, "8bb93ada7c63ae506b2f6c5b56e467ec1128c8aa9501de10180a2398a0dd4837"),
    ("edge-truncated-3-simplex", "hrep"): (0, "dc65e763e60c9cccfe5cd74c23a26ae88ea1c82ad7bd19f957bc0d54c5ed03b1"),
    ("edge-truncated-3-simplex", "vertices"): (0, "921b22b1807a0c0b40159b01bcaabde18730c54d4bba07000d071b34178f14ce"),
    ("edge-truncated-3-simplex", "verify"): (0, "9f5aa278f25704a4d16d9a9d5a042ac5883ed26684f45c9485b53d768e4070fa"),
    ("vertex-truncated-3-simplex", "faces"): (0, "b15f6e56d516e875abf8543512e3d1d3ac1789c497f1917377b90190bd163ce5"),
    ("vertex-truncated-3-simplex", "constructions"): (0, "720267150d3308b653fd304b345b9e370032c431d068604a8a67e23a75022624"),
    ("vertex-truncated-3-simplex", "hasse"): (0, "a0864131a6728f98d9fb027620cf8fef5cc1f92cd8783c5f0829f88bbe58edfb"),
    ("vertex-truncated-3-simplex", "fvector"): (0, "8bb93ada7c63ae506b2f6c5b56e467ec1128c8aa9501de10180a2398a0dd4837"),
    ("vertex-truncated-3-simplex", "hrep"): (0, "43f0896804fb2ee31f2a5dbb52beb1b77876603e8ad6f854773fe1d7f84202e2"),
    ("vertex-truncated-3-simplex", "vertices"): (0, "e2d4656effb1031186f7c5ba84299a65f28bd4de3e5ae3bdf206b34380e67839"),
    ("vertex-truncated-3-simplex", "verify"): (0, "9f5aa278f25704a4d16d9a9d5a042ac5883ed26684f45c9485b53d768e4070fa"),
    ("hemiassociahedron", "faces"): (0, "ed996bccee207bbd3bd03bf61d91027031ba3ec3676c79028b2158a9ede0774c"),
    ("hemiassociahedron", "constructions"): (0, "5fbec8b3598b73883f1199e3d15a2f2cfae205c94a45759429d9dd4be6b76544"),
    ("hemiassociahedron", "hasse"): (0, "fece7c5564c2b4004a11c7070b91efe7a52ac6687b81757ea2fa550fc95466cc"),
    ("hemiassociahedron", "fvector"): (0, "a6a1cbb02571a6c779b1533530f91ccf9318eb1712b37245cb856b97ff8bf61e"),
    ("hemiassociahedron", "hrep"): (0, "881ccc6ec2283633d7eb9a99bff51506653626939bbce74bbb79feca5f567cb2"),
    ("hemiassociahedron", "vertices"): (0, "1d5229513b4b169ce7697ce9ead3ba34326911596da8e0f41965226659dbac91"),
    ("hemiassociahedron", "verify"): (0, "789ce8f9d3b212ea277238137e1635fef16360df7a41b2660bafe67db69022e2"),
    ("4-associahedron", "faces"): (0, "05abcfed280a0fd4d2385b5314b39288e77bd0301987f35837043f9a45537e95"),
    ("4-associahedron", "constructions"): (0, "6d348141017dfe13126f6b4935e99fe352546b05a711f0705430e111095f4a5a"),
    ("4-associahedron", "hasse"): (0, "607b66d2396c1cc9d5c99ee3aa7e7257c1c18df7af0982cfad2ee912fc04689f"),
    ("4-associahedron", "fvector"): (0, "a4a6d0b9541a90d764de254361eb313c4efc1ff5e51f2d15f01c75e6a8789508"),
    ("4-associahedron", "hrep"): (0, "dc85ca4e9d192f1aa11e040603b4fb4afe30d6d903dd992e94ec58469ab416bc"),
    ("4-associahedron", "vertices"): (0, "3bf57df5271b604584eabe886e1bf2552415d374cd1dea39e62869b34a19a229"),
    ("4-associahedron", "verify"): (0, "7f338ce83c8083f19f3a0c507447b1e701feff760cb77824990e6df95330007a"),
}


def test_golden_table_covers_the_named_corpus():
    names = {name for name, _ in GOLDEN}
    assert names == set(corpus.named_corpus())
    assert len(GOLDEN) == len(names) * len(COMMANDS)


def _named_run(capsys, tmp_path, name, command):
    """The exit status and stdout digest of command on the named hypergraph."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(corpus.named_corpus()[name].to_json_dict()))
    status = cli.main(COMMANDS[command] + [str(path)])
    return status, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, tmp_path, name, command):
    assert _named_run(capsys, tmp_path, name, command) == GOLDEN[name, command]


@pytest.mark.parametrize("name", sorted(corpus.named_corpus()))
def test_faces_read_no_psi_key(monkeypatch, capsys, tmp_path, name):
    # hg faces buckets its rows by node count, so no psi key is built
    def refuse(h):
        raise AssertionError("hg faces built a psi key")

    monkeypatch.setattr(constructs, "_psi_bits", refuse)
    assert _named_run(capsys, tmp_path, name, "faces") == GOLDEN[name, "faces"]


# The square example of the truncation-rounds acceptance check: round 1
# truncates the 3-simplex along {x,y}, round 2 along {x,x+y}.
SQUARE_HT1 = {
    "format": 1,
    "carrier": ["x", "y", "z", "u"],
    "hyperedges": [["x"], ["y"], ["z"], ["u"], ["x", "y"], ["x", "y", "z", "u"]],
}
SQUARE_HT2 = {
    "format": 1,
    "carrier": ["x", "y", "z", "u", "x+y"],
    "hyperedges": [["u"], ["x"], ["y"], ["z"], ["x+y"], ["x", "x+y"],
                   ["u", "x", "y", "z", "x+y"]],
}
TREES = {
    "star": "a(b,c,d)",
    "chain": "a(b(c(d)))",
    "figure": "a(b(c,d),e)",
    # six nodes: 42 and 56 vertices, so skeleton_dot's labels are exercised
    # past the five-node trees above
    "chain6": "a(b(c(d(e(f)))))",
    "figure6": "a(b(c,d),e(f))",
    # an all-theta star past four nodes, and a seven-node tree whose
    # skeleton mixes beta and theta edges on 248 vertices
    "star6": "a(b,c,d,e,f)",
    "figure7": "a(b(c,d),e(f,g))",
}
# named hypergraphs used as round-one truncations by `trunc init`
ROUND_ONE = ("hemiassociahedron", "3-permutohedron")
PBA_FACE = "{x2,x3,x4,x1+x3,x1+x4,x2+x3,x2+x4,x3+x4,x1+x2+x4,x1+x3+x4,x2+x3+x4}({x1,x1+x2+x3}(x1+x2))"

# an argument naming one of the files written by `inputs` below stands
# for that file's path
SYNTAX_COMMANDS = {
    **{f"pba setup {n}": ["pba", "setup", str(n)] for n in range(1, 5)},
    **{f"pba census {n}": ["pba", "census", str(n)] for n in range(1, 5)},
    "pba encode": ["pba", "encode", "3", PBA_FACE],
    "pba encode --ascii": ["pba", "encode", "3", PBA_FACE, "--ascii"],
    "pba decode letters": ["pba", "decode", "3", "x1(x2x3)x4"],
    "pba decode holes": ["pba", "decode", "3", "(x1.1).1.1; .1={x2,x3,x4}"],
    "trunc init": ["trunc", "init", "--truncations", "ht1.json"],
    "trunc round preview 1": ["trunc", "round", "--state", "s1.json"],
    "trunc round advance": ["trunc", "round", "--state", "s1.json", "--truncations", "ht2.json"],
    "trunc round preview 2": ["trunc", "round", "--state", "s2.json"],
    **{f"trunc round pba {n}": ["trunc", "round", "--state", f"pba{n}.json"] for n in (3, 4)},
    **{f"trunc init {name}": ["trunc", "init", "--truncations", f"{name}.json"] for name in ROUND_ONE},
    **{
        f"trunc round preview {name}": ["trunc", "round", "--state", f"s-{name}.json"]
        for name in ROUND_ONE
    },
    **{
        f"op {command} {tree}": ["op", command, "--tree", f"{tree}.json"]
        for command in ("graph", "classify", "words")
        for tree in TREES
    },
}

SYNTAX_GOLDEN = {
    "op classify chain": (0, "40f4a79eafdaf4d12aec93efb72e115bc34e315210a1e6737debf3c765a3f0ad"),
    "op classify chain6": (0, "8387000f304dd502aee239142735e801ea696dca0b13c92f4204384f46ac7334"),
    "op classify figure": (0, "fbd768bae2f00fb0b028975cd818d82136b8ce765a167cc7026b811a2ee4b6b8"),
    "op classify figure6": (0, "23e7868d760db25cfd2f7e9b105a8cac6a3a6c46fd5e65c69115476f9bf20d04"),
    "op classify figure7": (0, "c254d301defbdff599297df0eb5df9ad2cc1788898b8b72068405071e8efaf2f"),
    "op classify star": (0, "0aa3fd35bbde86bb2efd6b6e233c0cf067cdb46865fdd281709b97fcd06076e8"),
    "op classify star6": (0, "084fe6a2b50474cb26193a27230c4bd4d6a53bdd402df9851f03802f2aa21aa0"),
    "op graph chain": (0, "1355349b9fa8fb077eda61d81ad62adaecfc57c0cb8421f512baec7de67f58ba"),
    "op graph chain6": (0, "5e1fca0f0882fd4819b76a245574352a8716677a21cf51438afe8951eb53df54"),
    "op graph figure": (0, "ba3220170d8720786b527eb37753f3631be55a58a6f592e99bf5d6b1da2984ec"),
    "op graph figure6": (0, "b2931345a379720a1078b437a9910b0070109da47e38564072c363f3f631055d"),
    "op graph figure7": (0, "82f334413c5a306ff370e745f8a73292d5cd5c92bbb85fa55c03e00110ce74d7"),
    "op graph star": (0, "920e44cffcc9ed1e8e38e8fc81f0d2766f637b4769d267f73efcf471fb270bdf"),
    "op graph star6": (0, "ddf2d4155736cffa5283c081d41e8c14656370351285cb2b2225094e57af63df"),
    "op words chain": (0, "ce5d20e04d73b332ab3ab8d7f86a5a664b5536f41c93491e6aea3453f7f01897"),
    "op words chain6": (0, "bb8792d6e34002c12015ef1db4b38232860beac3a25beeea96233499d4c078b6"),
    "op words figure": (0, "5716bbcf67751afa6706301ac0856512b612e1cd816d08c3575e9fcca895aff0"),
    "op words figure6": (0, "5fb9ea66fa53210f5a57274c3438da6120ab95375261a794fe143b54b9ece9ba"),
    "op words figure7": (0, "26ca5cb0bb0e44b12bf07115c31c47ddee26242a9c5fbf144debd6fccb63ea57"),
    "op words star": (0, "b924e9eec42525216089366cded0d52c2e936240e781eadecbb42ea2fb6cfa07"),
    "op words star6": (0, "132a01d8e53cd559cb7cb30cdddc172874fdd787cd969056bbb572f342788641"),
    "pba census 1": (0, "e11c950d6c124a852fc6f3ce38ac2fa02b84a157197190c814bd645681c55f18"),
    "pba census 2": (0, "01b664891c6da0a50e09f882df6007e60138809f79bf9f1096226c67308fce37"),
    "pba census 3": (0, "0a6a8ea77be845b8c15e51c7f0edf61086ab9970be2d544b9e157dae09d47637"),
    "pba census 4": (0, "da5e40f733e36cef727851d4366a81ec96fce23d7fd053a0daac2eb206e40359"),
    "pba decode holes": (0, "a02ad15aa208635394cf446955dca70796b757c466132b9d2f39e50c1db1a7d5"),
    "pba decode letters": (0, "6e12a5f09c0f39ee15bc40f3291025b9589d97815a556d7ae94b60a41250bd59"),
    "pba encode": (0, "aff765ee5e7aef35d8266deed408e3e99de179f0a71fc6bd530019d247de6a8b"),
    "pba encode --ascii": (0, "683fa4b44c20a1f84246a81195c3a786de8e01ae42659e0f2cae57eed0904024"),
    "pba setup 1": (0, "1542c8b80c09bb5cbaf4a2868d044334c44b84f2fc2ec727b0913c6d11a224be"),
    "pba setup 2": (0, "4749d82f6f064664ad02eb13cb80252009c84e9d995c058bf9c7c9e415a00ae2"),
    "pba setup 3": (0, "52d92003d125250e10af12e3e7c0cd8ee31694bf0dae45cbbe21447e31a66fc0"),
    "pba setup 4": (0, "2d23868925c9bd01e596e7cff6e48c83c388a29aca099bd95ff103a9ea88660f"),
    "trunc init": (0, "1970e8030e60c8570ac289a0597729e19327a6098cb2c63f9207607bd8f48a96"),
    "trunc init 3-permutohedron": (0, "25082b3a9ab1f3b57f89dd5c5d62093afe8e131e2125e37b3138f0c09f677b51"),
    "trunc init hemiassociahedron": (0, "2377e2356f520a9d0dc2292f120aa6e0b9f8159f8f1f3a4c3681be775d6f928c"),
    "trunc round advance": (0, "0e76b70d829f69c9e0dd9aea560030317a6ab41a276bdfe5481f6f065f3bdb48"),
    "trunc round pba 3": (0, "d08bc57ecae21f01f97a7cf7b81951885b2472656b082f2b3547d4fa16849b3c"),
    "trunc round pba 4": (0, "04b5faaba895d474c37b975073eb2d92f56a659ecf049352b024fd1053d7defe"),
    "trunc round preview 1": (0, "284bedb95a82b8552971e6649dc9d093ed6d649007197c50ca3fe73e74f4474a"),
    "trunc round preview 2": (0, "c2fbd5501bb33a99cbf529f0bbb21f4015153b3a96f24b47a15919ae0c34daab"),
    "trunc round preview 3-permutohedron": (0, "1c96c0ad82b79aaf884a509c56b737b6b32944c2450493d28efe8a3f2daea98b"),
    "trunc round preview hemiassociahedron": (0, "64ff7a2ab9237e6a3affbb8d0db834658790eae312ff4619e784020aa0ff5d55"),
}


# The six-atom complete graph, path and cycle. `realize --vertices` and
# `--verify`, where the vertex coordinates grow to 3^6, were computed with
# the triangular Fraction solve, before the integer closed form; the
# listings, while they still printed Construct trees and hasse contracted
# each face with `covers`
SIX_ATOMS = {"K6": corpus.complete_graph, "P6": corpus.path_graph, "C6": corpus.cycle_graph}
SIX_ATOMS_GOLDEN = {
    ("K6", "faces"): (0, "5978727a35119da6aa852e3de7ceedfec3fcffe321aa2f91151655dc1d5749a8"),
    ("K6", "constructions"): (0, "fa3c8a3a5114f16b50f813b198ee4190fb57249c65d638bd9d681abf6812cb48"),
    ("K6", "hasse"): (0, "3d1b9715418120662a55a7a36c7b19e5a7b9ff3b554612eb0228e84ad73dd079"),
    ("P6", "faces"): (0, "a495455968a070d37a18d3cd623f8d73cb765865d3fc5d768c281ad5b51e95b4"),
    ("P6", "constructions"): (0, "385bb13aba3e744b4480ee665b1e5a9765b9808b87e213521341d747e606bc4c"),
    ("P6", "hasse"): (0, "8eca4f2705ba4e9a8d5ef4da57a64e12843f4b6e503477b7b3493cf4918f8c9f"),
    ("C6", "faces"): (0, "d8a56a325703bd96d559b5647dd6279709f1cb2ae980a81c6950337f8e3393b9"),
    ("C6", "constructions"): (0, "7124c6fe1ea6cc8a6cd64a8665390a53e64001ef5d34b69a2d3e1854c255569e"),
    ("C6", "hasse"): (0, "930bab30e04e1d5d99f9afba0a252d90cd31af94c3c48c278f282ae1c3aed81c"),
    ("K6", "vertices"): (0, "d318cda417d1ee9d99e41904682455d276ab065fc8ba2d3cc91991ef93555629"),
    ("K6", "verify"): (0, "180a14aa44ec78d5167010cd53d85d91ee03b8c672cf00a03a7591329caf891a"),
    ("P6", "vertices"): (0, "4f7c69d9416376d907866f511109402c2f88fc9c48ae821aad8f8d97cbba9d1f"),
    ("P6", "verify"): (0, "7dbcabcfde8ecab3a856fd3c564b627ed01c708c3c9ca6c316744b6e51f4e72b"),
    ("C6", "vertices"): (0, "7e84fdd905eb07eefb65b416f036b68e4cfaa76e86b7c237cf53855737b148b2"),
    ("C6", "verify"): (0, "0463503b9a5941a227d8653d9afa890e7f00f1ceb00477ac4c4d78c8c7454dfa"),
}


@pytest.mark.parametrize("name,command", sorted(SIX_ATOMS_GOLDEN))
def test_realize_on_six_atoms_matches_golden(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SIX_ATOMS[name](6).to_json_dict()))
    status = cli.main(COMMANDS[command] + [str(path)])
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == SIX_ATOMS_GOLDEN[name, command]


# Twelve atoms labelled in reverse, a path with one three-atom edge: the
# 253 rows of `realize --hrep` print their atoms in carrier order. Taken
# while each row still went through a LinearConstraint
TWELVE_ATOMS_HREP = "ff4f169959e1e3af5daa559cd6d1eaf2e7f039be30a2a1528029e1976725ec1c"


def test_hrep_on_twelve_atoms_matches_golden(capsys, tmp_path):
    atoms = list("lkjihgfedcba")
    edges = [[a] for a in atoms] + [atoms[i : i + 2] for i in range(11)] + [["l", "g", "a"]]
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(Hypergraph(atoms, edges).to_json_dict()))
    assert cli.main(["hg", "realize", "--hrep", str(path)]) == 0
    out = capsys.readouterr().out
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == (253, TWELVE_ATOMS_HREP)


def _labelled_complete_graph(n: int) -> Hypergraph:
    atoms = [f"a{i}" for i in range(n)]
    return Hypergraph(atoms, [[a] for a in atoms] + [[a, b] for i, a in enumerate(atoms) for b in atoms[:i]])


def _seeded_thirteen_atoms(seed: int) -> Hypergraph:
    """A connected 13-atom hypergraph: a random spanning tree of pairs and
    four edges of three to five atoms. Its connected subsets fall in two
    blocks, those without and those with the 13th atom."""
    rng = random.Random(seed)
    atoms = [f"v{i}" for i in range(13)]
    rng.shuffle(atoms)
    edges = [[a] for a in atoms] + [[atoms[i], atoms[rng.randrange(i)]] for i in range(1, 13)]
    edges += [rng.sample(atoms, rng.randint(3, 5)) for _ in range(4)]
    return Hypergraph(atoms, edges)


# Past the named corpus: many faces of one dimension, and hrep rows over
# both halves of the carrier in more than one block. Labels a0, a1, ...
# sort a10 before a2, so K16 rows printed in text order, not carrier order,
# fail. Taken while every listing built, sorted and formatted its rows one
# at a time
LARGE = {
    "K6": lambda: _labelled_complete_graph(6),
    "K7": lambda: _labelled_complete_graph(7),
    "K16": lambda: _labelled_complete_graph(16),
    "seeded13": lambda: _seeded_thirteen_atoms(0),
}
LARGE_GOLDEN = {
    ("K7", "faces"): (0, "e19f4dff1ed5dbde56c18310e0398ddc4ad2e244e2bf6bc30a2dce511bcc297b"),
    ("K7", "constructions"): (0, "51a77c283ac5119a33109970e3d1ece63786db211c10f712a2b916d2544a8a29"),
    ("K6", "hasse"): (0, "f3a0c70822b9d6089a301983c38081da6bb1e35b513e66d9c5e52be9d7fd4cc3"),
    ("K7", "hasse"): (0, "38dc0fcf66f0aaf1b3a68f1ac30b6daf6ec5d46a6ad89ec93a2be6c87c68b45c"),
    ("K16", "hrep"): (0, "db1d8ab15f4a0714faa85199ba9ec5901e77131b6f83fd099d35528c62daaef2"),
    ("seeded13", "hrep"): (0, "1f358b3c0497813aeff3cf28ba3f625d1613a3f90dfc6f872f1255c1aaccea35"),
}


@pytest.mark.parametrize("name,command", sorted(LARGE_GOLDEN))
def test_large_listings_match_golden(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(LARGE[name]().to_json_dict()))
    status = cli.main(COMMANDS[command] + [str(path)])
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == LARGE_GOLDEN[name, command]


def _argv(template, inputs):
    return [str(inputs.get(a, a)) for a in template]


@pytest.fixture()
def inputs(tmp_path, capsys):
    files = {"ht1.json": SQUARE_HT1, "ht2.json": SQUARE_HT2}
    files.update((f"{name}.json", parse_tree(text).to_json_dict()) for name, text in TREES.items())
    files.update((f"{name}.json", corpus.named_corpus()[name].to_json_dict()) for name in ROUND_ONE)
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(json.dumps(data))
    # s1 and s-<name> are outputs of `trunc init`, s2 the state field of
    # the output of `trunc round --truncations`, pba<n> the output of
    # `pba setup n` (which `trunc round` unwraps itself)
    for name, template, unwrap in (
        ("s1.json", SYNTAX_COMMANDS["trunc init"], False),
        ("s2.json", SYNTAX_COMMANDS["trunc round advance"], True),
        *((f"s-{name}.json", SYNTAX_COMMANDS[f"trunc init {name}"], False) for name in ROUND_ONE),
        *((f"pba{n}.json", SYNTAX_COMMANDS[f"pba setup {n}"], False) for n in (3, 4)),
    ):
        assert cli.main(_argv(template, paths)) == 0
        data = json.loads(capsys.readouterr().out)
        paths[name] = tmp_path / name
        paths[name].write_text(json.dumps(data["state"] if unwrap else data))
    return paths


def test_syntax_golden_table_covers_every_command():
    assert set(SYNTAX_GOLDEN) == set(SYNTAX_COMMANDS)


@pytest.mark.parametrize("case", sorted(SYNTAX_GOLDEN))
def test_syntax_stdout_matches_golden(capsys, inputs, case):
    status = cli.main(_argv(SYNTAX_COMMANDS[case], inputs))
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == SYNTAX_GOLDEN[case]


# `op classify` at its guard: the star with eight edges, whose 40,320
# vertices are joined by theta edges only; pinned before op classify built
# its skeleton in one node-builder call per tree
STAR9 = "a(b,c,d,e,f,g,h,i)"
STAR9_CLASSIFY = (0, "329d3f75346557cbd20478649bdd9dcb170bdaab98447b3e3728e1755f8ce797")


def test_classify_at_its_guard_matches_golden(capsys, tmp_path):
    path = tmp_path / "star9.json"
    path.write_text(json.dumps(parse_tree(STAR9).to_json_dict()))
    status = cli.main(["op", "classify", "--tree", str(path)])
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == STAR9_CLASSIFY


@pytest.fixture()
def json_dumps_checked(monkeypatch):
    """Every JSON document a command writes, each checked against the json
    module's spelling of the same data."""
    real, dumped = cli._dump_json, []

    def checked(out, data):
        text = io.StringIO()
        real(text, data)
        assert text.getvalue() == json.dumps(data, indent=2, sort_keys=True) + "\n"
        dumped.append(data)
        out.write(text.getvalue())

    monkeypatch.setattr(cli, "_dump_json", checked)
    return dumped


def test_json_commands_spell_what_the_json_module_does(capsys, tmp_path, inputs, json_dumps_checked):
    cases = [case for case in sorted(SYNTAX_COMMANDS) if case.startswith(("pba setup", "trunc"))]
    for case in cases:
        status = cli.main(_argv(SYNTAX_COMMANDS[case], inputs))
        assert (status, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == SYNTAX_GOLDEN[case]
    for name in sorted(corpus.named_corpus()):
        assert _named_run(capsys, tmp_path, name, "vertices") == GOLDEN[name, "vertices"]
    assert len(json_dumps_checked) == len(cases) + len(corpus.named_corpus())


# sha256 of `hgpoly <group> <command> --help` at 80 columns
HELP = {
    ("hg", "faces"): "83106f946bff10881487cf502b064bfc310b8715a883447e62e153b91d543a8d",
    ("hg", "fvector"): "6da90e7a7217c2cabe8f5615c239d58549fb61c38621c5699d40e11d88024d0e",
    ("hg", "constructions"): "7f37478eccba44c511cfff32332544878e1400ba0d18c25a24ee95928ded6a88",
    ("hg", "hasse"): "2c6caba6dbbef63189ec74396be87713e34fa8d8044e22ddb18c381d359d24a5",
    ("hg", "realize"): "6d6985c7ac41e6b6cf1ee9a32f9250b23b39c179d2f988a8bdd0db6b161531db",
    ("op", "graph"): "29c63b141d3410efec4196e8361c663739592387962aa7ddc4547ca4519821c4",
    ("op", "classify"): "fe2d847b9c517c09e2267ac725c9270bb7ee9ff5f1ef410f9be026c1ed07da3d",
    ("op", "words"): "cbfbb641772b270d662e1905da041f832febd8c77b92337e85dc0ae5454c2345",
    ("trunc", "init"): "0ad4bd82537cbc4e54475e87ac0eb22ccebb32e6c144abd0ab6179af5aae1953",
    ("trunc", "round"): "71965587a5e33273f666c8b5c089505922786dea7727183f2954e2137a0fadcc",
    ("pba", "setup"): "2a9afbfa2f69db71eb9702cc733804451e34a96fc082095682472d870bf2b41b",
    ("pba", "encode"): "a33bad0459a9fdddb4d4908c9414c6f12f3239a11829131c2ba0132206f3f8a5",
    ("pba", "decode"): "543c129225f5d8eb96dd5994f8a92505857835cfadbebca4e84474f03aad45d0",
    ("pba", "census"): "ce7176f4e348334e611770c87a82a15c8f2773a03c0bea3e6124b506b59d6c7d",
    ("corpus", "verify"): "36f5e81cc8a06f9c72f1d3570cb4d6811f3ff497fcc2b5a1c4c5bacea5286dbf",
}


def test_help_texts(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, digest in HELP.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv
