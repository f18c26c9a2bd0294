"""Tests for trace containers, patterns, profiles and the generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.workloads import (
    PROFILES,
    TraceGenerator,
    build_suite,
    build_workload,
    get_profile,
    suite_names,
)
from repro.workloads.generator import ACCESS_GRANULARITY
from repro.workloads.patterns import (
    HotSegment,
    LocalSegment,
    PhasedWriteSegment,
    StreamingSegment,
    zipf_pmf,
)
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Trace


class TestZipf:
    def test_normalized(self):
        assert zipf_pmf(100, 0.8).sum() == pytest.approx(1.0)

    def test_alpha_zero_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_skew_increases_with_alpha(self):
        flat = zipf_pmf(100, 0.2)
        skewed = zipf_pmf(100, 1.5)
        assert skewed[0] > flat[0]

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_pmf(10, -1.0)


class TestSegments:
    def test_streaming_sequential(self):
        rng = np.random.default_rng(0)
        seg = StreamingSegment(100)
        lines = seg.draw(rng, 10)
        assert lines.tolist() == list(range(10))

    def test_streaming_wraps(self):
        rng = np.random.default_rng(0)
        seg = StreamingSegment(8)
        seg.draw(rng, 6)
        lines = seg.draw(rng, 4)
        assert lines.tolist() == [6, 7, 0, 1]

    def test_hot_segment_in_range(self):
        rng = np.random.default_rng(0)
        seg = HotSegment(64, alpha=1.0)
        lines = seg.draw(rng, 500)
        assert lines.min() >= 0 and lines.max() < 64

    def test_hot_segment_skewed(self):
        rng = np.random.default_rng(0)
        seg = HotSegment(256, alpha=1.2, scatter=False)
        lines = seg.draw(rng, 5000)
        counts = np.bincount(lines, minlength=256)
        assert counts[0] > 10 * max(1, counts[200])

    def test_hot_scatter_changes_mapping(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        scattered = HotSegment(256, alpha=1.2, scatter=True).draw(rng1, 100)
        sequential = HotSegment(256, alpha=1.2, scatter=False).draw(rng2, 100)
        assert scattered.tolist() != sequential.tolist()

    def test_phased_wws_rerandomizes(self):
        seg = PhasedWriteSegment(128, alpha=1.2)
        seg.start_phase(0)
        perm0 = seg._perm.copy()
        seg.start_phase(1)
        assert not np.array_equal(perm0, seg._perm)

    def test_phase_restart_idempotent(self):
        seg = PhasedWriteSegment(128)
        seg.start_phase(3)
        perm = seg._perm.copy()
        seg.start_phase(3)
        assert np.array_equal(perm, seg._perm)

    def test_revisited_phase_matches_a_fresh_shuffle(self):
        seg = PhasedWriteSegment(128, permutation_seed=9)
        seg.start_phase(2)
        seg.start_phase(5)
        seg.start_phase(2)
        fresh = PhasedWriteSegment(128, permutation_seed=9)
        fresh.start_phase(2)
        assert np.array_equal(seg._perm, fresh._perm)

    def test_local_window_bounded(self):
        rng = np.random.default_rng(0)
        seg = LocalSegment(100, window_lines=10)
        lines = seg.draw(rng, 200)
        assert lines.min() >= 0 and lines.max() < 100

    def test_segment_rejects_zero_lines(self):
        with pytest.raises(ConfigurationError):
            StreamingSegment(0)


class TestTrace:
    def make_trace(self, n=10):
        return Trace(
            np.zeros(n, dtype=np.int16),
            np.arange(n, dtype=np.int64) * 128,
            np.zeros(n, dtype=np.uint8),
        )

    def test_length(self):
        assert len(self.make_trace(5)) == 5

    def test_rejects_mismatched_columns(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(3, dtype=np.int16), np.zeros(2, dtype=np.int64),
                  np.zeros(3, dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=np.uint8))

    def test_rejects_negative_addresses(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(1, dtype=np.int16), np.array([-1], dtype=np.int64),
                  np.zeros(1, dtype=np.uint8))

    def test_write_fraction(self):
        trace = Trace(
            np.zeros(4, dtype=np.int16),
            np.zeros(4, dtype=np.int64),
            np.array([FLAG_WRITE, 0, FLAG_WRITE, 0], dtype=np.uint8),
        )
        assert trace.write_fraction == pytest.approx(0.5)

    def test_records_decode_flags(self):
        trace = Trace(
            np.array([3], dtype=np.int16),
            np.array([256], dtype=np.int64),
            np.array([FLAG_WRITE | FLAG_LOCAL], dtype=np.uint8),
        )
        record = next(trace.records())
        assert record.sm == 3 and record.is_write and record.is_local

    def test_slice(self):
        trace = self.make_trace(10)
        part = trace.slice(2, 5)
        assert len(part) == 3
        assert part.address[0] == 2 * 128

    def test_slice_validates(self):
        with pytest.raises(TraceError):
            self.make_trace(10).slice(5, 3)


class TestProfiles:
    def test_sixteen_benchmarks(self):
        assert len(PROFILES) == 16

    def test_all_regions_populated(self):
        regions = {p.region for p in PROFILES.values()}
        assert regions == {1, 2, 3, 4}

    def test_mixes_sum_to_one(self):
        for profile in PROFILES.values():
            assert sum(profile.mix_vector()) == pytest.approx(1.0)

    def test_get_profile_unknown(self):
        with pytest.raises(ConfigurationError):
            get_profile("doom3")

    def test_suite_names_ordered_by_region(self):
        names = suite_names()
        regions = [PROFILES[n].region for n in names]
        assert regions == sorted(regions)

    def test_write_fractions_span_paper_range(self):
        """The paper quotes near-0% to ~63% writes across the suite."""
        fractions = [p.write_fraction for p in PROFILES.values()]
        assert min(fractions) < 0.10
        assert max(fractions) > 0.40


class TestGenerator:
    def test_deterministic(self):
        a = build_workload("bfs", num_accesses=2000, seed=7)
        b = build_workload("bfs", num_accesses=2000, seed=7)
        assert np.array_equal(a.trace.address, b.trace.address)
        assert np.array_equal(a.trace.flags, b.trace.flags)

    def test_seed_changes_trace(self):
        a = build_workload("bfs", num_accesses=2000, seed=1)
        b = build_workload("bfs", num_accesses=2000, seed=2)
        assert not np.array_equal(a.trace.address, b.trace.address)

    def test_addresses_line_aligned(self):
        wl = build_workload("kmeans", num_accesses=2000, seed=0)
        assert (wl.trace.address % ACCESS_GRANULARITY == 0).all()

    def test_sm_ids_in_range(self):
        wl = build_workload("kmeans", num_accesses=2000, num_sms=15, seed=0)
        assert wl.trace.sm.min() >= 0 and wl.trace.sm.max() < 15

    def test_write_fraction_close_to_profile(self):
        profile = get_profile("bfs")
        wl = build_workload("bfs", num_accesses=20000, seed=0)
        assert wl.trace.write_fraction == pytest.approx(
            profile.write_fraction, abs=0.06
        )

    def test_local_accesses_flagged(self):
        wl = build_workload("mri-gridding", num_accesses=20000, seed=0)
        assert wl.trace.local_fraction > 0.05

    def test_kernel_descriptor_matches_profile(self):
        profile = get_profile("tpacf")
        wl = build_workload("tpacf", num_accesses=100, seed=0)
        assert wl.kernel.regs_per_thread == profile.regs_per_thread
        assert wl.kernel.compute_intensity == profile.compute_intensity

    def test_generator_rejects_bad_args(self):
        gen = TraceGenerator(get_profile("bfs"))
        with pytest.raises(ConfigurationError):
            gen.generate(0)
        with pytest.raises(ConfigurationError):
            gen.generate(100, num_sms=0)

    def test_build_suite_subset(self):
        suite = build_suite(["bfs", "kmeans"], num_accesses=500)
        assert set(suite) == {"bfs", "kmeans"}

    def test_build_suite_full(self):
        suite = build_suite(num_accesses=200)
        assert len(suite) == 16

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(PROFILES)), st.integers(min_value=100, max_value=3000))
    def test_any_profile_generates_valid_trace(self, name, length):
        wl = build_workload(name, num_accesses=length, seed=0)
        assert len(wl.trace) == length
        assert wl.trace.address.min() >= 0


#: SHA-256 over each generated column's dtype string and bytes, in
#: (sm, address, flags) order, keyed by (profile, length, seed).  The
#: generator must reproduce these exactly: every pinned simulation
#: digest downstream depends on them.
TRACE_PINS = {
    ("backprop", 1, 0): "10d59e03fa41869f9986488510aa703fb5c417484bf40a7bf251c9ac9cbc4980",
    ("backprop", 1, 7): "85809bf6e228d57881f143e52db413f1258ae26cd11fbf11ee50e964edfcd9cf",
    ("backprop", 17, 0): "d8a71bb8a2c3b0d6940cc34aa1d690c2d157eb4bacaf0fc8a1fe6d504ebad8c6",
    ("backprop", 17, 7): "ef988c6d1ad5b34be93092ef551bf6ae211f370d7035239549893baea7e33a0d",
    ("backprop", 3000, 0): "c19ef241046f6f0ffabb9b3f5f52f8723cce69a05e9341e7a03aa6838e6234a2",
    ("backprop", 3000, 7): "7bf5020e73235a7e2a4391a47259e4ed97308f7778f3cd970c1744b8e81719ec",
    ("backprop", 100000, 0): "1190a7c81f20f1810ed2cc4af03b8359420ef29b0763154b31c058c6ccc77e3a",
    ("backprop", 100000, 7): "a38630915e67604c20443c82a5c912455eb92debdbc67cc5f0b3dd2e26d68ddd",
    ("bfs", 1, 0): "cf60a2fd036229bf286fe3d9a973b7e2d48c0f6ecebf8231de6a03ca6351f9ba",
    ("bfs", 1, 7): "a2291f56eee75195fb3f17d60399757295f610e0b7ab566eb8bdc4c541ad6502",
    ("bfs", 17, 0): "8bdad0638235784bf5c66f0c163cd4bd1165465bd2f18ab017b3420dde86049c",
    ("bfs", 17, 7): "a68b2e27b89384e34a56b9df7f77ee8532507fa1e276f627c2a1d89c3e2522d8",
    ("bfs", 3000, 0): "3b66e0ddb0ddb9b0634320b09db01ff715ec7064c9939ac44122475b530d7266",
    ("bfs", 3000, 7): "ac71a372558ec1bc644767f79853d8d81a71ad1fc4e7b7857d09685ca687fd9f",
    ("bfs", 100000, 0): "1871a85e095af6442f4bb552749e4735a8ee797f18b94a388e7308272a72da97",
    ("bfs", 100000, 7): "1a1e079f34679cfad25eb47869d01ad2a260657cbe2866bd959e22c69eb59e5d",
    ("cfd", 1, 0): "d2858302ac6b9a93ec31207c87b806c00fd48d5f5e407d784c6ebb767c07de49",
    ("cfd", 1, 7): "ee6818e0cff96968d313d948070c91ba04adfeee2fdcc304a4f7cf1ffbb76385",
    ("cfd", 17, 0): "f624a785c32c9db51e3f09317b244d08f5da0b913d8fc4b5ce84d036afee0113",
    ("cfd", 17, 7): "8deb30b5c44012bf486922fedb92c949125ab60c985d41af984ab29d262926f9",
    ("cfd", 3000, 0): "bb2f4a2e4bf275d404103b7503d4667426b90b296ab5866b96dd641675f7b6a8",
    ("cfd", 3000, 7): "59f368d9f3a32ee10f196b44fca46e7eefda06b9702999f2809f0584bdd50b64",
    ("cfd", 100000, 0): "e13460536046b526f15d27e4277e38dfe6470ed747bed1d89a6ff22cfff057ee",
    ("cfd", 100000, 7): "278b3f3173d535c1a91d5c1e4769a04627f56ca10a19366b279d90bf3973c8d6",
    ("hotspot", 1, 0): "e97324e98372b50d28b82784a6088af9eee15f02289fdf7533a5ac9895b8ae78",
    ("hotspot", 1, 7): "5401480421fb12a52791747c478103f724e5d9978c7a2f23513e163ae4416582",
    ("hotspot", 17, 0): "3fbb41fd2b7a580e1c9aa83f12608cc54ea3f7ef882b10ee553d20b52cce6db7",
    ("hotspot", 17, 7): "875565268b0933b1c1d3a51fd59e5b7545426d76fd50e75c2a28f627d916e9bf",
    ("hotspot", 3000, 0): "201c11cf96911d29bce2dd475d20df31a248cb0a4927e99f5ba8b771f4f9629c",
    ("hotspot", 3000, 7): "6201397da38c7eb05961bc1d45df8a60d5a8ee5cc45393a72570aa8d3413308c",
    ("hotspot", 100000, 0): "949bd8df83a4545e4c6810fc45b02151c5fcaabd120ef6e1aba4b714011dcb0d",
    ("hotspot", 100000, 7): "57264f7815c2815bf3bba005597d458cf3452c93adc85abcd087cf7a2dbb3bcc",
    ("kmeans", 1, 0): "b249c73b37c2646053752f62bd4b37d51309c9a769222e4a1a1433ac33ae128f",
    ("kmeans", 1, 7): "0fedb776925209c12e5603aebaf74033eb5d452354d500c3fba3e80d952883eb",
    ("kmeans", 17, 0): "70e96f7f6c9905539bb5fbb3fe0e0bd116b34325e532de6f13bae6f5a35a2fde",
    ("kmeans", 17, 7): "50a67deb7140a98a8037fc677808e519f5589b0df3e69d96edb1136877cc2c36",
    ("kmeans", 3000, 0): "955e92ed5128c3b5143c5ce042177f3aacc28864fd98fedb141023cfed4d0dcf",
    ("kmeans", 3000, 7): "8c57395695087af7a9a45c29455a81475b52426f79cabb2da0149c1775736acf",
    ("kmeans", 100000, 0): "47548be3e6e71f4f93914c762cc3d45fbf8fca8bb06eb10818f2c1ac29f257aa",
    ("kmeans", 100000, 7): "449202fba131fdb5b1b456c0131991110126c385a1ba1c74fc6d4ffa9e21417c",
    ("lbm", 1, 0): "d2858302ac6b9a93ec31207c87b806c00fd48d5f5e407d784c6ebb767c07de49",
    ("lbm", 1, 7): "ee6818e0cff96968d313d948070c91ba04adfeee2fdcc304a4f7cf1ffbb76385",
    ("lbm", 17, 0): "1b74a53c88c44973392d1bdeb7477ac6c1cdb9d2f9d96edb7cc9918d06ede2d2",
    ("lbm", 17, 7): "53074113e9cc6b82c73d903458b9d23a660e29e163dd16bbe3e411e9b6bd6929",
    ("lbm", 3000, 0): "0a5c87266db1a2bfcfc135a390958a1e6afd2dd5791fb52c43065a088c240a59",
    ("lbm", 3000, 7): "d64ac56d60b19c07ae375ca7b700a4ac76ef5259a50d6e7257e01d3d27777671",
    ("lbm", 100000, 0): "1b27d321f7a787b6fc562a36ae0eee82ce4f890df5fcc3f4b645aa8e2eeaec43",
    ("lbm", 100000, 7): "7a530a3d2b1a999231b3e295580eeffb2e31e5ce976ee999e5907d4531a144ed",
    ("lps", 1, 0): "4ca121aaf28592de8c95c25295966ff49685c6815b67071485caf186bd191d2c",
    ("lps", 1, 7): "bad590bf5101b01cde2571251d8f6831a4a94080f1613b3cb4a7bfcfc048a731",
    ("lps", 17, 0): "9d27fc7ef9d05cdd4e336e431ad854a74dcaa4f770288b02e1538b69b435e61c",
    ("lps", 17, 7): "f36636619eb4550e774444cc41f01de2bb37cec9308cee2215326e95abd3a984",
    ("lps", 3000, 0): "53a3a50cea3dae8d8d66a2f1e493d2f05936568e689e2432974f73791d58504e",
    ("lps", 3000, 7): "08c6e08cfc0c6db88d946968003e2ee965814534c9e3a9f9d95c46c1dbdab626",
    ("lps", 100000, 0): "f6b3465c392d168e05d3945573330eddfc9d09faa91ceacc75b124e4ac64d6dd",
    ("lps", 100000, 7): "097710d92b5756a03bd0f7e67f53b1dd51f8c694d761719ea90466623558d1ea",
    ("mri-gridding", 1, 0): "4ca121aaf28592de8c95c25295966ff49685c6815b67071485caf186bd191d2c",
    ("mri-gridding", 1, 7): "bad590bf5101b01cde2571251d8f6831a4a94080f1613b3cb4a7bfcfc048a731",
    ("mri-gridding", 17, 0): "eaf2d63fe5eb65e1c9ae701f5010fe910e5e245642a6fb32e84c9a7c5446bde1",
    ("mri-gridding", 17, 7): "923475da65ecf1d8a841c01abf29c84b79c199f54f7204888800d23b66e0a0d8",
    ("mri-gridding", 3000, 0): "596ba913bdf3c097943652b9cc6815ebe9c2f7d8d92033752e4384cfed7b4402",
    ("mri-gridding", 3000, 7): "c8d8b843bb9ce32d35fb3f47d195e260dbc253a05bb7e6778587cf47b053b4ab",
    ("mri-gridding", 100000, 0): "1d93854a6f8d725b217ff65e5644f56bc847363b5e3ba8c7ab4f17776036d927",
    ("mri-gridding", 100000, 7): "02516982e6f914087f8af861ad00184c8f7d1ad8548c1922bcbc611689a83e9e",
    ("mummergpu", 1, 0): "0308034ddb17e68f65b19c8aa2cb84281dde38afa06acf7b5688a5b341c09e1e",
    ("mummergpu", 1, 7): "91b540a51e3b1bde4ea387bc2d8d096dbe5faeae45bd735c78a0f089ea6e12f7",
    ("mummergpu", 17, 0): "fa14a4bafc8f26684819611ba0bda833a95ae89a86196a4ccc6f6605b6b1ebba",
    ("mummergpu", 17, 7): "49b87c79d2af476fb68b32fe64ac48cf4fa06d417795f0bf772745cd726e795a",
    ("mummergpu", 3000, 0): "feecea573f8a564d56459c5d9fc6c475ec8d60ecd0f45e81b5d33f1e29ac692c",
    ("mummergpu", 3000, 7): "4088afe924a4e060c1399a92078715332163275cef73813dc7a2547cc398b977",
    ("mummergpu", 100000, 0): "e6485087323112b62e5710809f317317a4c92cb640002847a3a96284c604719c",
    ("mummergpu", 100000, 7): "14c4d89049fc65add47d201777665cd4fd36e0d280d441c9cda147388535b681",
    ("nn", 1, 0): "efac48d09ec47a774113c940b4b9e1b1736fc20a51319c3fda19f48d4ad3751e",
    ("nn", 1, 7): "e01a54012c380fbd7d7c7a1a5aaad2e8fef1c5ba1872542fc48d2ee8cc847cb1",
    ("nn", 17, 0): "572c746684d00b379d34425ece66ad9b7d8a10c81d4659a03919d5f7fe174bcb",
    ("nn", 17, 7): "5e0b2250c5487ba13ab8ae6e1be4e5f5a2695fe1573b7aaba1d53612b6082485",
    ("nn", 3000, 0): "df2dd826743803704b39d5b19eb01cbee4f61d445a83774eda39ddd26aaa654a",
    ("nn", 3000, 7): "294e0c94143771cb766e29f155e66b373c66cb1e870e2f1e2b831f863bbfcac9",
    ("nn", 100000, 0): "3021218aa01265f6550c3067f763643f80b0445e43ab5a16ec734bfb7945cfbd",
    ("nn", 100000, 7): "65306a5e20037e122f3931d2775621b5b96f0ed4b4bbe252713ba68936752dcb",
    ("pathfinder", 1, 0): "6dbf16a5451bd6e16aeac1d04c411f37f6076e5fabf9c53bd3dbe8bd3e9f4d56",
    ("pathfinder", 1, 7): "5a877223ac2fe0258408c397afea1b45e44ffd39d691d1a26876da739589edbe",
    ("pathfinder", 17, 0): "851c48d7960dabcd063c3544c5257c51344d8a0b629f322a87ca6eae11f90b3a",
    ("pathfinder", 17, 7): "2fc816400507628275396877fcaa0158d518d9558bcb86344931ec78d72883a4",
    ("pathfinder", 3000, 0): "839d4d310576935557c6ff6aaa463459bbc0a19ec3b8ecc411cb5b5c688e2998",
    ("pathfinder", 3000, 7): "97e388a13101adb7b5f202f96526b2b27100191dc4af13361903911f82ac12bc",
    ("pathfinder", 100000, 0): "e19adc214d9af64c2f0be8cc9d5174fd5a967a12f3b261cabb717bc7cf07563f",
    ("pathfinder", 100000, 7): "ecac2cb0a3b9ab455c0fee89d774eceb331a376afb22aa327c4eb3ce8b85ffa9",
    ("sgemm", 1, 0): "a458521bdf9d528b9987dcbc5d8be0125f3e6f932cdc6b92f0e6f64717e48ba8",
    ("sgemm", 1, 7): "9bdd9d3843284ae1b5d534a0012d09eb7052c34a913abf94277879d880f561f6",
    ("sgemm", 17, 0): "73c8f975a2aa2b6e59016e427b6c1f6743a3696a2f2810065a198bf2adfc9ae2",
    ("sgemm", 17, 7): "750fd63e06130486c1e90efce77e209f2993843d80460b5d91adb14ab537ac24",
    ("sgemm", 3000, 0): "37ac6a7679abcb83d424dc3761e1f2825ece86ecd5277d04bbde9c7840d0e3e9",
    ("sgemm", 3000, 7): "815aa61d4d32b221d7b760dd5e75480a482aae7ceb7924c088bb1c53262a089e",
    ("sgemm", 100000, 0): "aaf915d883b7a531a75511a08fdc16d74c533f4df87d5887e9dde3022bb259b1",
    ("sgemm", 100000, 7): "e8cb297a0c9a0fd97685d58c009940c93615972d498c0fd82f8f0c155fd3e455",
    ("srad_v2", 1, 0): "bb7b7f60d48099597cb2b38d7c23258020c0f123ed213021ed3d69da0097a7cf",
    ("srad_v2", 1, 7): "9bd0311f20c69f4b5dfd20a14c501499a3e0937ded109ea98b4504ffeeb25cce",
    ("srad_v2", 17, 0): "a1e25721b87c1498e355abfb76df883434ec86e32b0ea953bb9fa32c77145958",
    ("srad_v2", 17, 7): "5bee1f1d1c6b30d33650e9194d12a374bafde4fa5d7ad4fd97fb87bc19b4b861",
    ("srad_v2", 3000, 0): "29c161078284ec9e13198e0bb685b783d354b3cfee1dfe17da82d8c29122ed94",
    ("srad_v2", 3000, 7): "0b9a060eefb3c12fbb0e1829cc0c7e6bb03dd3fcccb8652efe5263b5f6e7e54e",
    ("srad_v2", 100000, 0): "3d4243e38bea4d3b36ec551141cd199ad7f6a1bcb46470119d649d10e1cb3bd0",
    ("srad_v2", 100000, 7): "c8499c38ca7632c86dc4dc0adea111890d1c263abd42366603fc2fa49e4a3cff",
    ("stencil", 1, 0): "d2858302ac6b9a93ec31207c87b806c00fd48d5f5e407d784c6ebb767c07de49",
    ("stencil", 1, 7): "ee6818e0cff96968d313d948070c91ba04adfeee2fdcc304a4f7cf1ffbb76385",
    ("stencil", 17, 0): "12ee4b641ed0b92d992ea3abfae3534a343b123df8a700a7c49017658a56fbd7",
    ("stencil", 17, 7): "aa24477c32fc10a63b99c5e9b44fa4c85091b38a1ec093939e9c97ea9d0b614b",
    ("stencil", 3000, 0): "3963ef591f48d03fa5b573869260b1c616bf999bdadaccb58ea7095996f1fe58",
    ("stencil", 3000, 7): "b5ffddb4498ef2188bddd03e683a9d5af2c1fdfc4d1adc2e4494e28753ec87f3",
    ("stencil", 100000, 0): "bbf8b4525018918bb6d3271a9488cb39c606c8f29bb68f48e8518a66142b9b47",
    ("stencil", 100000, 7): "14d0307b0ae0dc0d373e1ded28b77645bc3a0b2709425ac1902592c3d18a1def",
    ("streamcluster", 1, 0): "bdfbc073fc8292a9031513faa3ca692b6a74d3d5cae585c4cdc32d02cd079f23",
    ("streamcluster", 1, 7): "856f90c05a84449c6efb2b29e9c580976ce6f2906f9c27ffeee78ec42e076074",
    ("streamcluster", 17, 0): "045bcbaec9405861695302440296320dec0b8cc4112677ed45ed46313a0eeb12",
    ("streamcluster", 17, 7): "21970fb2e5433ab5ffdc05f6bfbc665bf368887df561c7ce5c4cd710cf69026e",
    ("streamcluster", 3000, 0): "a6e3aa96fd67add0a858651f690b757feed4ceba360d5cc9af7c8de13ea99a54",
    ("streamcluster", 3000, 7): "b3f8878c57b531cd25d4397cf4dd9a19ca3040e726f6151e6d0626a297d7d916",
    ("streamcluster", 100000, 0): "0fdcfb3e43ed9c2eab1b57181e2b429c0b17103a474a609c2ef0a64c28ca4774",
    ("streamcluster", 100000, 7): "557d1ddc8841db5af5191761048135a8096ea31b301a5cea95550df5e0d164ef",
    ("tpacf", 1, 0): "18393a9ce630fc9ef36b6d36e28a29ec8bed4975b2650c241ca3111b28218256",
    ("tpacf", 1, 7): "180cdb14746aec2908c7f4c9bfb79ddbd430781bd94a0585c74a0f810c8dd869",
    ("tpacf", 17, 0): "2e4c47bc84a96dd459c54a45b69738828aab3d0a81c3cde2ee91bdd8287e5224",
    ("tpacf", 17, 7): "109f26172ac4f6f61f1b53561aa6b2a1e28eb239fa66f06a07e667e517dbd670",
    ("tpacf", 3000, 0): "08e77b545c92709c59faea2616855d5475db4a171fc49aad42d9426003714189",
    ("tpacf", 3000, 7): "9febc3dc8b647d13f9ac0f6f50f3651be6cf9c4d683b57970b7bec736be86fea",
    ("tpacf", 100000, 0): "03f027824bec117c3f5155638963755ef7bf63164f83108561a6ffc2ca0cff3e",
    ("tpacf", 100000, 7): "6a112d74de7dc85282917a770f8feb0201de39dbdf8faf2e4cdc151377fcf445",
}


def trace_sha256(trace):
    """The pinned digest of one trace's columns."""
    h = hashlib.sha256()
    for column in (trace.sm, trace.address, trace.flags):
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    return h.hexdigest()


class TestTracePins:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_traces_match_their_pins(self, name):
        generator = TraceGenerator(PROFILES[name])
        observed = {
            (name, length, seed): trace_sha256(
                generator.generate(length, seed=seed))
            for length in (1, 17, 3000, 100_000) for seed in (0, 7)
        }
        expected = {key: value for key, value in TRACE_PINS.items()
                    if key[0] == name}
        assert observed == expected

    def test_every_profile_is_pinned(self):
        assert {key[0] for key in TRACE_PINS} == set(PROFILES)