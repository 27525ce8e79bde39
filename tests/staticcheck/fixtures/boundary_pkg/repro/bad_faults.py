"""Seeded NEON403/NEON404 violations (line numbers matter to the tests)."""

from repro.faults import registry as fault_points


def run(faults, channel):
    faults.arm("gpu.request_hang", channel.task.name)  # NEON403
    faults.arm(point="kernel.poll_stall")  # NEON403 (kwarg)
    faults.arm(MY_PRIVATE_POINT, channel.task.name)  # NEON404
    faults.arm(fault_points.NOT_A_POINT)  # NEON404
    faults.arm(
        fault_points.GPU_REQUEST_HANG if channel.dead else "gpu.request_slowdown",  # NEON403
    )
    faults.arm("audited")  # neonlint: allow[NEON403] test


def deep_receiver(self):
    self.device.faults.arm("neon.stale_scan")  # NEON403


MY_PRIVATE_POINT = "my_private_point"


def private_receiver(self):
    self._faults.arm("lit")  # NEON403 (private injector handle)
