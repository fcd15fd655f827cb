"""Stdout digest and exit code of every CLI form on the documents in ``data/``.

The benchmark pool holds no document like ``data/labels.json``, whose
element texts carry commas and quotes, so these digests pin the bytes the
pool does not reach.  They were recorded before element i moved to bit
n - 1 - i, and they must not change with the bit numbering.
``data/wide-rank3.json`` (U(3, 16)) was recorded before the flats came from
vectors over atom sets: it has the fewest flats per atom that 16 elements
allow, where that route costs most.  Its ``reducts --json`` and
``lattice --dot`` digests were recorded before the hyperplanes became a
slice of the whole flat record and the CLI's commands returned their stdout.
``data/wide-table.csv`` (15 attributes, 60 rows, 2 to 40 values per column,
drawn with ``random.Random(15)``) was recorded before the table layers read
class-id columns: its condition fails, so both of its text forms take the
discernibility route.
``infosys data/weather.csv --json --decision humidity`` was recorded before
the JSON leaves became one member-list leaf: it is the only form here whose
``"decision"`` is a string and whose nested partitions leave a column out.
"""

import hashlib
from pathlib import Path

import pytest

from latmat.cli import main

ROOT = Path(__file__).resolve().parent.parent

# command line -> (sha256 of stdout, exit code)
EXPECTED = {
    "lattice data/covering.json": (
        "0cdd6079e3148e2eaec8b1f3312b12bbc6cd80120fddcd98118c9de2c9163b49", 0
    ),
    "lattice data/covering.json --json": (
        "b404369db4df9b7437d47f439ab05e4be8acdac2907e06f81f229b25e8b4f983", 0
    ),
    "lattice data/covering.json --dot": (
        "6589da14ef88951a8dc8991542db8971069d41c0a640233dee944f353fce66a3", 0
    ),
    "reducts data/covering.json": (
        "f34ec6f91d1e8c841255fd14e81192e5d03487556ec230442fb74eed2af92880", 0
    ),
    "reducts data/covering.json --json": (
        "e9c4f9dab32571254afd864aa383b70bd1e005fe0b5805a9a5913a61d2790791", 0
    ),
    "lattice data/family.json": (
        "4535cfc93bab83f451950e944c420ddc80d00f2a2b26e83e18f4b7213fb21b48", 0
    ),
    "lattice data/family.json --json": (
        "c811044f8ed8c022d748334e83fa72956fa72314c45415377174886cdbb1d077", 0
    ),
    "lattice data/family.json --dot": (
        "ed833358016221a57a355bd25e8c3653531553366953a98140bcb0ece36ce63a", 0
    ),
    "reducts data/family.json": (
        "5bf14bcad09548ac4976faa78d3e3df6cfa83bccc79e3433018e838b3f246d70", 0
    ),
    "reducts data/family.json --json": (
        "24daee88d88213a7ccb4ab3f179b16fc6feed4b79ab9dd15021b46997cc5fee8", 0
    ),
    "lattice data/labels.json": (
        "187e241627fdd2480a068d1e8ccaa10cee106ebc0c2e920b691e05f5b1676c6f", 0
    ),
    "lattice data/labels.json --json": (
        "17bee8a163c76c1e84eb0d97bb597e76b432b045e117c5dc8a1f0b3f9c0639a4", 0
    ),
    "lattice data/labels.json --dot": (
        "7bebf42af237ef2df06e75d316d9730b984618213586a8aab27fc52d556db46d", 0
    ),
    "reducts data/labels.json": (
        "92b0b33deae1ce3ce3bc2625e59d12e3ec449103e31b71bd383a8d0a25e8a6ee", 0
    ),
    "reducts data/labels.json --json": (
        "37a16a69a1b5956e5eed62693c3834c6016613d9a1e78cc091867cf53d53044a", 0
    ),
    "lattice data/many-blocks.json": (
        "a2297d67615dbadb58c0c7dfad525b5242feb2efef9dde2e8e4a7e1987709338", 0
    ),
    "lattice data/many-blocks.json --json": (
        "07dcb7a674fd23673ade98637d01b58f46822e720b09c463261380026fcf3f72", 0
    ),
    "lattice data/many-blocks.json --dot": (
        "81174c3e570db12d461eecf48b002dd18f6e85b2bf924ac98ad0cf523c12a600", 0
    ),
    "reducts data/many-blocks.json": (
        "4b86f0f39a8187dd573d6b75ed14041c49d2f4ada5ba977fe649525c93e2a3ea", 0
    ),
    "reducts data/many-blocks.json --json": (
        "0acf46eeb2a2ebd8c6d46b2a78295e5aabd6a005d6ffd3cec98e3ebd8556c355", 0
    ),
    "lattice data/uniform-8-16.json": (
        "ec0df4778e4b9b3ceb6f5092b2057f3ff5f4856e3d1c3b26f27a23e96d533ab8", 0
    ),
    "lattice data/uniform-8-16.json --json": (
        "9e071e3194160c0ea5e54dfb6dde48ea55e166b3ef014f545a617a520182de82", 0
    ),
    "lattice data/uniform-8-16.json --dot": (
        "93d6f4deed60dfefb0a6478d4f8cc966eb5e51ffaed07688fbd9c67888007961", 0
    ),
    "reducts data/uniform-8-16.json": (
        "b9ea58f4389d5d9c52ef04d89b59d085122f02945b1bd542e98f64aae2739195", 0
    ),
    "reducts data/uniform-8-16.json --json": (
        "c228915e3ea552936889b3df48d78dc282a5bb41b7903a317f0e799d3b51bb98", 0
    ),
    "lattice data/wide-rank3.json": (
        "6e629372d04f7aa312e63f049b9cfaea09851961966aa44facc9055c663cee09", 0
    ),
    "lattice data/wide-rank3.json --json": (
        "109e530d23e91a2c17d48af809cb0c836e446babc30253b99802bb140e5c0b3a", 0
    ),
    "reducts data/wide-rank3.json": (
        "12caf4b64dedc50a79bd1565a2d7d73c30b01cd400012364f3ef7072abf62b85", 0
    ),
    "reducts data/wide-rank3.json --json": (
        "8d3294a2eebf731c74f9b70e575f0d7ea6047b40e6a4efa4bff4409a202c1cc5", 0
    ),
    "lattice data/wide-rank3.json --dot": (
        "e98c12dd538c6b51f51cf9ae2f7030c2931a72c12cecf5225ee55a088a2f1a86", 0
    ),
    "infosys data/weather.csv": (
        "312097c624c2dd251c77dccfd4454819e77b3716bd3b359989d5a2b5c9d01ecb", 0
    ),
    "infosys data/weather.csv --json": (
        "e830e128659e43eaded814ff8a26cc2693990a7312d8a92ff1f1d75342505fc7", 0
    ),
    "infosys data/weather.csv --force-brute": (
        "a68a6290899fea2d78ffb9a9260bbaea1baad6b43b7c11f75c234987fa0eaeae", 0
    ),
    "infosys data/weather.csv --decision humidity": (
        "9f1d380a2bc401aad13c6e3676fa344bcadeedc6c6642a313a76feb9b10c1524", 0
    ),
    "infosys data/weather.csv --json --decision humidity": (
        "5d6d17a92de5a3a269038f83714c76e76e58ae26783893e4f4b34299620387fd", 0
    ),
    "infosys data/wide-table.csv": (
        "c568fc341dcdf4afd3b5e9559d9040b685eceed5f87c3d0dc5cf69bff1b06f6d", 0
    ),
    "infosys data/wide-table.csv --force-brute": (
        "c568fc341dcdf4afd3b5e9559d9040b685eceed5f87c3d0dc5cf69bff1b06f6d", 0
    ),
    "infosys data/wide-table.csv --json": (
        "beef4e666407cc99546b7870e02c7c44d0567c2c48aa3add7b5431f2badbca5e", 0
    ),
}


def test_every_data_document_is_pinned():
    documents = {p.name for p in (ROOT / "data").iterdir()}
    named = {Path(argv.split()[1]).name for argv in EXPECTED}
    assert named == documents


@pytest.mark.parametrize("command", EXPECTED)
def test_data_command_stdout(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == EXPECTED[command]
