"""Golden corpus: the exact bytes of every subcommand's stdout and files.

Each case runs ``qfp`` in-process in an empty directory, with relative
output names so that stdout holds no temp path, and compares the sha256
of its stdout and of every file it writes with the value recorded here.
Only a change that states a deliberate format change may edit a value.
"""

import hashlib

import pytest

from qfp.cli import main

# the code file read by the show and verify cases, as written by
# ``codes export --kind random --n 6 --m 20 --seed 2``
INPUT_CODE = ("6 20 3 RandomLinear\n"
              "01110011011010101110\n"
              "01000010011110000011\n"
              "11110100110010100111\n"
              "00100110011011111110\n"
              "10010100110111111110\n"
              "11001101010011011110\n")

# argv -> sha256 of stdout and of each file written
GOLDENS = {
    "run_exact": (
        ["run", "--code", "hadamard", "--n", "4", "--x", "0011",
         "--y", "0101", "--exact", "--out", "r.csv", "--json", "r.json"],
        {"stdout":
         "e321b10e012d52d1607f4388b73fbd5846d7cfdd153bf570d4be24f150bfbf60",
         "r.csv":
         "1d04568e7b7b771e8662d8a17b4ee39e9f42c17a5b725af49ba39cad5af82032",
         "r.json":
         "e95737990228ca89b68293a3435f43485eb642a0e6d7cafd6542cdfd58808614"}),
    # m = 2^18 and 2^20: pN = 1/2 prints as 0.4999999999999999, so these
    # pin the rounding of the per-mode sum
    "run_exact_hadamard_18": (
        ["run", "--exact", "--code", "hadamard", "--n", "18",
         "--x", "110011001100110011", "--y", "101101101101101101",
         "--out", "r.csv", "--json", "r.json"],
        {"stdout":
         "4211156acd219cc70a85552fba750b4b35a4137e9c4f6d08e9bdddf919df48b4",
         "r.csv":
         "5f9c39dbfc8a3b8f9593d78f3c9af91ddc7e201c38da72acece5efd4631040bf",
         "r.json":
         "0ecfd5c3023473a9ef462db181bff2534d0dcb2fc6317184841b9ac6429e2d6f"}),
    "run_exact_hadamard_20": (
        ["run", "--exact", "--code", "hadamard", "--n", "20",
         "--x", "11001100110011001100", "--y", "10110110110110110110",
         "--out", "r.csv", "--json", "r.json"],
        {"stdout":
         "4211156acd219cc70a85552fba750b4b35a4137e9c4f6d08e9bdddf919df48b4",
         "r.csv":
         "4ce84ae36ba3faf385c5feff44225c8d60942118af14ba132fc7299a39ef5eee",
         "r.json":
         "2e73e60f8e602c1b367b4c3da76276d96bbfd157dabe783d490fdb15a5e9c2a2"}),
    "run_sampled": (
        ["run", "--code", "repetition", "--n", "3", "--r", "2",
         "--x", "101", "--y", "100", "--k", "4", "--trials", "25",
         "--seed", "8", "--out", "r.csv", "--json", "r.json"],
        {"stdout":
         "083225fc819ffb7c892f0ff477cfff8363986966181a8d5fed6857b60f9c9fb0",
         "r.csv":
         "4beff85f0f456b3f250c8360bb65b17eae77c235a39c0d2f22fcc9e94556bd5d",
         "r.json":
         "7ceaf1f6954101774268ff2ae49373d1beca550ec89ca6763695d0faf01526ef"}),
    "run_phase_all_pairs": (
        ["run", "--phase-protocol", "--q", "3", "--all-pairs",
         "--out", "p.csv", "--json", "p.json"],
        {"stdout":
         "3c9b1b134c3622bdb658c54625787c7105516e5d6402988ef804283f73f12c71",
         "p.csv":
         "63fb843a957d0af849340eb360a1781cfabe0b1baf37079731bfaed45de70900",
         "p.json":
         "e96300ff4e90a368747294ae76fa8e7da91a0ac2f17ad681c61ac9ade5834473"}),
    "run_phase_pair": (
        ["run", "--phase-protocol", "--q", "5", "--phase-x", "1",
         "--phase-y", "3", "--out", "p.csv", "--json", "p.json"],
        {"stdout":
         "b8fc470391af2c9989cb9b219861f23243cbb6ed0a5b8b00d7e81bb4854449db",
         "p.csv":
         "6cf50b46bd9373e67c9d3b8d44e3e3632472d32ab9c6d270e919a5a0c6aba51e",
         "p.json":
         "7ec206669f5040a0540450b7c2d308270a14dc9af2d44b0ef1e9d4a4a8c0b4c3"}),
    # 1332 unequal pairs: the average tells a sequential sum from a
    # pairwise one
    "run_phase_all_pairs_37": (
        ["run", "--phase-protocol", "--q", "37", "--all-pairs",
         "--out", "p.csv", "--json", "p.json"],
        {"stdout":
         "7060e126869b8d7c781520dc461ad89d83af0012db897a8e92cfbefe80cf1289",
         "p.csv":
         "7c4448566d7c7d58d966e6888a1eec9c8283ff668414dc8a34877eadf9d709cd",
         "p.json":
         "170e079e5507abe5e357e4e87e59ef768f283add8d035a21f2604c647f8deb50"}),
    "run_phase_pair_300": (
        ["run", "--phase-protocol", "--q", "300", "--phase-x", "7",
         "--phase-y", "250", "--out", "p.csv", "--json", "p.json"],
        {"stdout":
         "9427783c8248d7161761f57066122272a6e6c9847851dc9cea635ca5e6e68b62",
         "p.csv":
         "38f1c2518260878fbf616a4e5cf2adb5cac3dce5885a4e68e4d74ada13f6549d",
         "p.json":
         "ff10ef8853f76abf2df385de69d577464026d9b924ac504b1f6d53b3fe3e4c81"}),
    "classical_smp": (
        ["classical", "--q", "3", "--alice", "3", "--bob", "2",
         "--out", "c.csv", "--json", "c.json"],
        {"stdout":
         "9cb9086b37fb9215c8e8338ab6c61a24aa75b30e06037dd8cdcd117a1817a229",
         "c.csv":
         "3e55ec6125e94fe781ff98786d77adc8c7e3d70baebda25366e313d3f5f2e98c",
         "c.json":
         "2a1972da8a42dad580d5e149981954f1467c8b892d9f6da925b3d943b741e61d"}),
    "classical_bounds": (
        ["classical", "--bounds", "--n", "1000000",
         "--out", "b.csv", "--json", "b.json"],
        {"stdout":
         "ce5a8261f52fdea4aece433d03e04e1bc6d0044c2c19791d1588f7bcc7b1048c",
         "b.csv":
         "c5f7e225ecc7cbd82418d836fdcad93b8559f763c4fd6851ea86acb5a803b28d",
         "b.json":
         "9641349c3e2d2fd7d8c47dde1feb5cf5b2cc495aa6c1d70e128c9c45e78a8c51"}),
    "classical_bounds_epsilon": (
        ["classical", "--bounds", "--n", "10000000000", "--epsilon", "0.01",
         "--out", "b.csv", "--json", "b.json"],
        {"stdout":
         "60684b87a695e1251ea7c76f16ea4947ac901643c2dd0faa8392d1b722595fcf",
         "b.csv":
         "2b5d10a825991922cc2e91522c72674453efa4471b4051036aacfe633a2ac404",
         "b.json":
         "1186aab60acaf45735ec989974eb0bfb919e826a7cb5b81aa1047665953bbdd5"}),
    "classical_breakeven": (
        ["classical", "--breakeven", "--epsilon", "0.01", "--mu", "2",
         "--json", "be.json"],
        {"stdout":
         "d3dc0675df651673a7d53548f0b3556549fd99ed773a9bc7467180c430e28932",
         "be.json":
         "206480ac0871a06c5f662623d49fbf4d0623e439e80ac54c649a209b6095b370"}),
    "classical_breakeven_mu": (
        ["classical", "--breakeven", "--epsilon", "0.001", "--mu", "3.5",
         "--json", "be.json"],
        {"stdout":
         "11f72079b443fb4f92fecc8d1efbc6b4192a7517022778009d03a8caa9a3b856",
         "be.json":
         "b3aa27248ff28d140931a5961c3d9175046f6973559b495faa96d262773e5488"}),
    "feasibility_slots_photon": (
        ["feasibility", "--L", "10km", "--period", "1ns",
         "--mu-photon", "0.2", "--json", "sl.json"],
        {"stdout":
         "73cb3c42a08d8d9baf9bab343b423904b9daa73688be57a2b8e7d8312bee295c",
         "sl.json":
         "6e4ea81f5ca5de261ef125d9f710152942eb44bb1516cdef6debcfaeb6cfe8f4"}),
    "feasibility_noise_deterministic": (
        ["feasibility", "--noise", "--deterministic-source", "--pn", "0.5",
         "--k", "3", "--trials", "2000", "--seed", "11",
         "--out", "n.csv", "--json", "n.json"],
        {"stdout":
         "6ca52c0c5b7f999f53a9ff9664cb4401503031401968c206467f24831a368db4",
         "n.csv":
         "a38cf67e3a79cca2e37c7822c15f895d65a26021b32cf7056aa3cbbd02291e3e",
         "n.json":
         "00021fe72a8812787876a0e4dcfebb6459175546087c2e933011bb29d48f22f1"}),
    "feasibility_noise_every_option": (
        ["feasibility", "--noise", "--pn", "0.25", "--k", "2",
         "--trials", "3000", "--seed", "5", "--mu-photon", "0.3",
         "--transmission", "0.8", "--efficiency", "0.9", "--dark", "1e-4",
         "--period", "2ns", "--L", "500m", "--index", "1.5",
         "--window-factor", "1.5", "--deterministic-source",
         "--out", "n.csv", "--json", "n.json"],
        {"stdout":
         "5cb30b41ae9f1c4532248fb5ee44b844522de88477ed6e3514fcf7dc2c3ac2d6",
         "n.csv":
         "3bdf16292288c7dcc51d0cfba6e4f1b89568790eec2f26777e328a446ff9e8de",
         "n.json":
         "9c79653847ad83d3eca696c6bf8ed5218e0725be03e1e69a6e0dc04dc202a041"}),
    "feasibility_sweep_dark": (
        ["feasibility", "--sweep-dark", "0,1e-4,1e-3", "--pn", "0",
         "--k", "2", "--trials", "500", "--seed", "3", "--slots", "50",
         "--mu-photon", "0.5", "--transmission", "0.7",
         "--out", "sw.csv", "--json", "sw.json"],
        {"stdout":
         "422c2a05267ec718d211294ecd727886fb5f4c226ccce175736072c98bad114f",
         "sw.csv":
         "78d26074974813f5fc99b68055434d55cac3c7cdf3be3eee7f24c02319302ce6",
         "sw.json":
         "ab96571c7164e6f3c291ece23f508c6a4402a07819322b5b94a1da2365950fa2"}),
    "codes_export_random": (
        ["codes", "export", "--kind", "random", "--n", "6", "--m", "20",
         "--seed", "2", "--out", "x.code"],
        {"stdout":
         "baca0e827faf173c7c2d54afc174edad4eb066c322a83dd13d96862f8fb87447",
         "x.code":
         "1e838c481828aae17f48f85961dea86ba59e68463ccb612dc1d0f5077e250b61"}),
    "codes_export_hadamard": (
        ["codes", "export", "--kind", "hadamard", "--n", "4",
         "--out", "x.code"],
        {"stdout":
         "b2099cb3724b2556170ebcdd34e8df1f3d02e5a328f53878b8891b56318a7385",
         "x.code":
         "10be023dc5f7c5486bc9b8a13ad7cf56c927095681ccdc002852b628609fe6e5"}),
    "codes_export_repetition": (
        ["codes", "export", "--kind", "repetition", "--n", "3", "--r", "4",
         "--out", "x.code"],
        {"stdout":
         "187870f12b2db3ee782dd7a4dd3a806903368049d1b6a999eeadb8490206fa17",
         "x.code":
         "1d5b13f3bf4c2de1dfc50e96cb998ecbb8646f65f20052b57c4f4901563ba768"}),
    "codes_show": (
        ["codes", "show", "--in", "in.code"],
        {"stdout":
         "dea21e521748ae07bf0e389508bfa2121e1afafff1281185eebbfdb2d28db114"}),
    "codes_verify": (
        ["codes", "verify", "--in", "in.code"],
        {"stdout":
         "3265194938d538b1d6a3a37aa453b5942b34f56171aa09aea9df7094f6b701f2"}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, directory, monkeypatch, capsys) -> dict:
    """Run ``qfp argv`` in ``directory``; sha256 of stdout and of each
    file it wrote."""
    monkeypatch.chdir(directory)
    (directory / "in.code").write_text(INPUT_CODE)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return {"stdout": sha256(out.encode()),
            **{p.name: sha256(p.read_bytes())
               for p in sorted(directory.iterdir()) if p.name != "in.code"}}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_bytes(name, tmp_path, monkeypatch, capsys):
    argv, expected = GOLDENS[name]
    assert run_case(argv, tmp_path, monkeypatch, capsys) == expected
