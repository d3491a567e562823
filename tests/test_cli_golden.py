"""Golden CLI output: the sha256 of stdout and the exit status of every
`hg` command on each named hypergraph. The digests pin the byte-identical
output contract, so any change to face order, text or numbers fails here."""

import hashlib
import json

import pytest

from hgpoly import cli, corpus

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


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(corpus.named_corpus()[name].to_json_dict()))
    status = cli.main(COMMANDS[command] + [str(path)])
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name, command]
