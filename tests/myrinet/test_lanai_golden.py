"""Golden records of the Myrinet testbed model.

Each :func:`~repro.myrinet.testbed.run_throughput_experiment` record is
encoded as canonical JSON and pinned by its sha256, over four LANai
configurations:

* ``default`` -- :class:`LanaiConfig` as calibrated;
* ``cpu_free_rx`` -- ``cpu_bound_rx=False``: the drain takes no LANai time;
* ``no_host_rx`` -- zero host-receive cost: the drain never waits for the
  host CPU;
* ``small_buffer`` -- a 9,000-byte input buffer, which drops at every
  packet size of the grid;

each on rings of 2, 3 and 8 hosts, one sender and all sending, at 512 to
8,192-byte packets.  Beside them, the per-adapter counters of a 4-host run
with a buffer fault injected mid-run, and one run with an
:class:`~repro.obs.Observability` bundle attached, whose record is pinned
without its ``kernel`` section (the kernel counts name the queue-entry
classes the model happens to use, not what it computes).

Any change to an event's instant, to the order of same-instant events or
to a counter shows up here.  Re-pin only after a change that is meant to
change the model::

    PYTHONPATH=src python tests/myrinet/test_lanai_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.myrinet import LanaiConfig, run_throughput_experiment
from repro.myrinet.testbed import build_testbed
from repro.obs import Observability

CONFIGS = {
    "default": LanaiConfig(),
    "cpu_free_rx": LanaiConfig(cpu_bound_rx=False),
    "no_host_rx": LanaiConfig(host_recv_overhead_us=0, host_recv_us_per_byte=0),
    "small_buffer": LanaiConfig(input_buffer_bytes=9_000),
}
HOSTS = (2, 3, 8)
SIZES = (512, 1024, 4096, 8192)
WINDOW = dict(warmup_us=5_000.0, measure_us=40_000.0)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _record_digests(config_name: str) -> dict:
    digests = {}
    for n_hosts in HOSTS:
        for all_send in (False, True):
            for size in SIZES:
                result = run_throughput_experiment(
                    size, all_send=all_send, n_hosts=n_hosts,
                    config=CONFIGS[config_name], **WINDOW,
                )
                key = f"h{n_hosts}/{'all' if all_send else 'one'}/{size}"
                digests[key] = _digest(dataclasses.asdict(result))
    return digests


def _buffer_fault_counters() -> list:
    """Four hosts all sending 1,024-byte packets; host 2 loses its next
    three arrivals to a buffer fault made 10 ms into the run."""
    sim, adapters = build_testbed(n_hosts=4)
    try:
        for adapter in adapters:
            adapter.start_greedy_sender(1024, 3)
        sim.run(until=10_000.0)
        adapters[2].inject_buffer_fault(3)
        sim.run(until=30_000.0)
        return [
            [getattr(adapter.stats, name) for name in type(adapter.stats).__slots__]
            for adapter in adapters
        ]
    finally:
        sim.close()
        for adapter in adapters:
            adapter.close()


def _obs_record_digest() -> str:
    result = run_throughput_experiment(
        1024, all_send=True, obs=Observability(), **WINDOW
    )
    record = dataclasses.asdict(result)
    del record["obs"]["kernel"]
    return _digest(record)


#: sha256 of each canonical-JSON record, per configuration.
GOLDEN_RECORDS = {
    "default": {
        "h2/one/512": "7f2196bd863dba8bc48313a54723356bb97a18698393b41f3978153314f31978",
        "h2/one/1024": "1878e5d2ab270c9572cd60d8168123a431436833471bcd88c8b4585a2a485aca",
        "h2/one/4096": "a134e02e5c08b7e199415cd905b86179100e8533ead2c249c96d812bb74f5c52",
        "h2/one/8192": "34d3086e340bd5a7620f80e3fded5386fc200961ff05388fc1ed7d00d2e6418b",
        "h2/all/512": "38e61cd909b58c5582afdbb7cf7c5e02bb745ac37ca5d18c5515d698acd0a54a",
        "h2/all/1024": "a2d000dfcf47f87c1220a8bd99eb3d28ef41c63209b4e38ab53877d6369cd70f",
        "h2/all/4096": "de2dc5fb058f8dc4500ff34dafb43de8fdeed6c7c3fa0dee71c19b61e4be4f8c",
        "h2/all/8192": "b1d99b729b49962d9ff579313fc4c80972116fe325e81107357dbb4101abcedc",
        "h3/one/512": "00c0120cd4f6f171caa75a56fa1618fa3cca8c98f0f911e120a25d04a27467ba",
        "h3/one/1024": "3d0ef6732a74aee375445dad2eaa3682ba4c447b22671945220d8da85ef53507",
        "h3/one/4096": "ada146de9feca1fbad185b51fc2128a992ab467b665e246e719f47fb73f03111",
        "h3/one/8192": "0712eff87884bb33da9a0aaa2704e0b7ba4268a9f93982ed0894242bcc6c17cc",
        "h3/all/512": "863afd8371e4f693ce4b75209c6a7ea225c6d845e3edc58638dc1c4eb65720d1",
        "h3/all/1024": "1cafe6f80499f92ac53ad1103c883a3a96a9bd822df0eca859cc5566b6a4e050",
        "h3/all/4096": "681cc83207040e3f6944c808cf104847ded5fd7d7bd8b06e11ef91e3ff9e333d",
        "h3/all/8192": "358364417f64d3182d8c3f487a4cc4d60d1008c9349b6f08bc425e1d35709ffa",
        "h8/one/512": "6f3e1cb5be177ff3fc4e612b22c685ce751eb58f9ff530ea97cfb2a86399887f",
        "h8/one/1024": "8a7727838823b56535131bed883e771637608e54af431db6bd5195e4a8dbd6b5",
        "h8/one/4096": "77635d71a3ff1cf364d290f2d33fd7e0930b55205b8bad6b56a13039fd85f7f1",
        "h8/one/8192": "b80611f2bc52e8337e8f24d9abb4134067d3b3da87c463c54ff2a7ddb6927eb4",
        "h8/all/512": "6f05bfbfdca739794a4fd7163b96f2ba6cf19b67f9d1c293ab1a31f33a8f9343",
        "h8/all/1024": "7a289993e76b4204ee91cca4e03d72c903f34b87e3d4e115dfe363cb984c7434",
        "h8/all/4096": "bec49a5dd62da7d1ab42f67f727c9c09a1835c904a3839315a171eba0ea39d1f",
        "h8/all/8192": "84568aeb71cfe5efffa404ad582f70089c6bb72f57208bf53229fc9699d01393",
    },
    "cpu_free_rx": {
        "h2/one/512": "7f2196bd863dba8bc48313a54723356bb97a18698393b41f3978153314f31978",
        "h2/one/1024": "1878e5d2ab270c9572cd60d8168123a431436833471bcd88c8b4585a2a485aca",
        "h2/one/4096": "a134e02e5c08b7e199415cd905b86179100e8533ead2c249c96d812bb74f5c52",
        "h2/one/8192": "34d3086e340bd5a7620f80e3fded5386fc200961ff05388fc1ed7d00d2e6418b",
        "h2/all/512": "38e61cd909b58c5582afdbb7cf7c5e02bb745ac37ca5d18c5515d698acd0a54a",
        "h2/all/1024": "a2d000dfcf47f87c1220a8bd99eb3d28ef41c63209b4e38ab53877d6369cd70f",
        "h2/all/4096": "de2dc5fb058f8dc4500ff34dafb43de8fdeed6c7c3fa0dee71c19b61e4be4f8c",
        "h2/all/8192": "b1d99b729b49962d9ff579313fc4c80972116fe325e81107357dbb4101abcedc",
        "h3/one/512": "00c0120cd4f6f171caa75a56fa1618fa3cca8c98f0f911e120a25d04a27467ba",
        "h3/one/1024": "3d0ef6732a74aee375445dad2eaa3682ba4c447b22671945220d8da85ef53507",
        "h3/one/4096": "ada146de9feca1fbad185b51fc2128a992ab467b665e246e719f47fb73f03111",
        "h3/one/8192": "0712eff87884bb33da9a0aaa2704e0b7ba4268a9f93982ed0894242bcc6c17cc",
        "h3/all/512": "863afd8371e4f693ce4b75209c6a7ea225c6d845e3edc58638dc1c4eb65720d1",
        "h3/all/1024": "1cafe6f80499f92ac53ad1103c883a3a96a9bd822df0eca859cc5566b6a4e050",
        "h3/all/4096": "681cc83207040e3f6944c808cf104847ded5fd7d7bd8b06e11ef91e3ff9e333d",
        "h3/all/8192": "358364417f64d3182d8c3f487a4cc4d60d1008c9349b6f08bc425e1d35709ffa",
        "h8/one/512": "6f3e1cb5be177ff3fc4e612b22c685ce751eb58f9ff530ea97cfb2a86399887f",
        "h8/one/1024": "8a7727838823b56535131bed883e771637608e54af431db6bd5195e4a8dbd6b5",
        "h8/one/4096": "22d52725ab17ce294e91adb456d94f6f5f9e37d3efa390533cc298e3a00d1d00",
        "h8/one/8192": "0ca0741d4caa7e7094bc76658f652245e6456f45828519942ef34297b49ccfe6",
        "h8/all/512": "6f05bfbfdca739794a4fd7163b96f2ba6cf19b67f9d1c293ab1a31f33a8f9343",
        "h8/all/1024": "7a289993e76b4204ee91cca4e03d72c903f34b87e3d4e115dfe363cb984c7434",
        "h8/all/4096": "bec49a5dd62da7d1ab42f67f727c9c09a1835c904a3839315a171eba0ea39d1f",
        "h8/all/8192": "84568aeb71cfe5efffa404ad582f70089c6bb72f57208bf53229fc9699d01393",
    },
    "no_host_rx": {
        "h2/one/512": "7f2196bd863dba8bc48313a54723356bb97a18698393b41f3978153314f31978",
        "h2/one/1024": "1878e5d2ab270c9572cd60d8168123a431436833471bcd88c8b4585a2a485aca",
        "h2/one/4096": "a134e02e5c08b7e199415cd905b86179100e8533ead2c249c96d812bb74f5c52",
        "h2/one/8192": "34d3086e340bd5a7620f80e3fded5386fc200961ff05388fc1ed7d00d2e6418b",
        "h2/all/512": "42fbc741427e69d5f0bc7a9b5a35ba21eb4348fea6128548a03cbdf09bc57cdc",
        "h2/all/1024": "72a651c7538eaa0f094c7c22f7fceee0d13fd33c05e92fd49d03cdf1ff8ccadc",
        "h2/all/4096": "c0b3a5eb77410a8dd6d24dfc4d274f7e45895130820e64c3a4ea599d3317eddd",
        "h2/all/8192": "b251a4ed868bb901b13de4d05d7c096426b138231d98e0bb4490dc12be22d2ad",
        "h3/one/512": "00c0120cd4f6f171caa75a56fa1618fa3cca8c98f0f911e120a25d04a27467ba",
        "h3/one/1024": "3d0ef6732a74aee375445dad2eaa3682ba4c447b22671945220d8da85ef53507",
        "h3/one/4096": "5a5f8d287ff444c6419775db0438762c44704bb998b7520074e69dd84071e54b",
        "h3/one/8192": "b89feaf5b4461f4c112800dd3b421467b155cfdc04d7636d7d2c041854c60e99",
        "h3/all/512": "04464011ab74041eea750d468906fb5d8f626fb934e7cc258f1ededf6da0171c",
        "h3/all/1024": "676f064dfaeb1ed7eb471260f4cc4b3c9d2ab16ef71d580dc91ddcff8f26de88",
        "h3/all/4096": "b4804e9ba94c2e1210066ccf284ad07256343fea14c61fc028e77f91b247328c",
        "h3/all/8192": "6e826a6f5931bcefcb5e16dddba011cbff7fe5ac28ef6179676b395389280c4b",
        "h8/one/512": "36e95abae635ae0f6565b8bc2373957026e401e7cdde96ef693c88a16dcf85eb",
        "h8/one/1024": "8a7727838823b56535131bed883e771637608e54af431db6bd5195e4a8dbd6b5",
        "h8/one/4096": "0ed8cee2054871fca454b71e8d7c41de5d57519aae889a047bfbd4203f90f4cd",
        "h8/one/8192": "d02519c5afadad77990af95e5d364f19e635b57d002bb34c88002ae91259c7de",
        "h8/all/512": "8005f88355f94953e38cefc5e7a56b63b39f23d4a4f573f01e17d88d921b0504",
        "h8/all/1024": "0e0808e85179533488d5b0509c9a36fa0c7e31cc9ae04289f27e962a1dda7d6f",
        "h8/all/4096": "b1ac86298b82b651d2470a79c1d4b0e58d23c1a818a6a300abbe9704249e5a42",
        "h8/all/8192": "387c41bc4b419a59f10bcd6260685fdf5ec60a943ee68033587f806556375acc",
    },
    "small_buffer": {
        "h2/one/512": "7f2196bd863dba8bc48313a54723356bb97a18698393b41f3978153314f31978",
        "h2/one/1024": "1878e5d2ab270c9572cd60d8168123a431436833471bcd88c8b4585a2a485aca",
        "h2/one/4096": "a134e02e5c08b7e199415cd905b86179100e8533ead2c249c96d812bb74f5c52",
        "h2/one/8192": "9e91f8a79e3aea191011accfd3ac1dd4f75c4723278fb67cdd45f188287bab3a",
        "h2/all/512": "38e61cd909b58c5582afdbb7cf7c5e02bb745ac37ca5d18c5515d698acd0a54a",
        "h2/all/1024": "a2d000dfcf47f87c1220a8bd99eb3d28ef41c63209b4e38ab53877d6369cd70f",
        "h2/all/4096": "de2dc5fb058f8dc4500ff34dafb43de8fdeed6c7c3fa0dee71c19b61e4be4f8c",
        "h2/all/8192": "5a0f9fc517e738c779951efa586f6c2ab12aa08d969a8fb1f48b49d155220101",
        "h3/one/512": "00c0120cd4f6f171caa75a56fa1618fa3cca8c98f0f911e120a25d04a27467ba",
        "h3/one/1024": "3d0ef6732a74aee375445dad2eaa3682ba4c447b22671945220d8da85ef53507",
        "h3/one/4096": "ada146de9feca1fbad185b51fc2128a992ab467b665e246e719f47fb73f03111",
        "h3/one/8192": "a0b48a5998cb53810e5c2673119ce219eea42df6080e74d2bcfd9dae7ce32c4b",
        "h3/all/512": "863afd8371e4f693ce4b75209c6a7ea225c6d845e3edc58638dc1c4eb65720d1",
        "h3/all/1024": "1cafe6f80499f92ac53ad1103c883a3a96a9bd822df0eca859cc5566b6a4e050",
        "h3/all/4096": "ec4b6f22337dcb657c74c93814a9d66ab63355ba5b8788f9d03a385f99cb0965",
        "h3/all/8192": "1a94e33feae9163d0393dcbeb090b508c2e57dd5303f768d729e2a99f18c94af",
        "h8/one/512": "6f3e1cb5be177ff3fc4e612b22c685ce751eb58f9ff530ea97cfb2a86399887f",
        "h8/one/1024": "8a7727838823b56535131bed883e771637608e54af431db6bd5195e4a8dbd6b5",
        "h8/one/4096": "77635d71a3ff1cf364d290f2d33fd7e0930b55205b8bad6b56a13039fd85f7f1",
        "h8/one/8192": "93144fa04d5ac14891ce30789361ebba77277e819d2a2562a03d02b08b1cbed4",
        "h8/all/512": "6f05bfbfdca739794a4fd7163b96f2ba6cf19b67f9d1c293ab1a31f33a8f9343",
        "h8/all/1024": "7a289993e76b4204ee91cca4e03d72c903f34b87e3d4e115dfe363cb984c7434",
        "h8/all/4096": "6c36f23c8995ca441fb829e2d0954012c5b83391ece2d2dc22aeac5083c3439b",
        "h8/all/8192": "34f94296d133c1620b638e30cb9bc39bee67cf72fb8b1dc16f036dc8c6297f43",
    },
}

#: ``AdapterStats`` slots per adapter after the buffer-fault run:
#: originated, received_packets, received_bytes, arrivals, drops,
#: injected_drops, forwarded.
GOLDEN_FAULT_COUNTERS = [
    [21, 61, 62464, 65, 0, 0, 44],
    [21, 61, 62464, 65, 0, 0, 39],
    [27, 55, 56320, 60, 3, 3, 37],
    [21, 61, 62464, 64, 0, 0, 44],
]

GOLDEN_OBS_RECORD = "a95c7ee1f41142193cb50478a241644ca02e3b2363cecf79e3de4945bf27c8fc"


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_record_pins(config_name):
    assert _record_digests(config_name) == GOLDEN_RECORDS[config_name]


def test_grid_drops_where_the_buffer_is_small():
    """The small-buffer configuration exercises the drop path."""
    lossy = [
        run_throughput_experiment(
            size, all_send=True, n_hosts=3,
            config=CONFIGS["small_buffer"], **WINDOW,
        ).loss_rate_per_host
        for size in (4096, 8192)
    ]
    assert all(rate > 0 for rate in lossy)


def test_buffer_fault_counters():
    counters = _buffer_fault_counters()
    assert counters == GOLDEN_FAULT_COUNTERS
    assert counters[2][5] == 3  # the injected drops


def test_obs_record_pin():
    assert _obs_record_digest() == GOLDEN_OBS_RECORD


if __name__ == "__main__":
    print("GOLDEN_RECORDS = {")
    for name in CONFIGS:
        print(f"    {json.dumps(name)}: {{")
        for key, digest in _record_digests(name).items():
            print(f"        {json.dumps(key)}: {json.dumps(digest)},")
        print("    },")
    print("}")
    print("GOLDEN_FAULT_COUNTERS = [")
    for row in _buffer_fault_counters():
        print(f"    {row},")
    print("]")
    print("GOLDEN_OBS_RECORD =", json.dumps(_obs_record_digest()))
