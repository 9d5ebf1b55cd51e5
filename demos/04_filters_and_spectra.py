"""The preprocessing battery: filter design, spectra, and the VLF footprint.

Designs the named Butterworth filters (``scipy.signal.butter`` sections),
prints their responses at the frequencies that matter, and contrasts the
raw spectrum of a drifting session with its highpassed version.

Run: python demos/04_filters_and_spectra.py   (~15 s)
"""
import numpy as np

import blockaudit as ba
from blockaudit import dsp

FS = 1024.0

filters = {
    "bandpass 14-71 Hz (order 2)": ba.FilterSpec.bandpass(14.0, 71.0, FS, 2),
    "notch 49-51 Hz (order 2)": ba.FilterSpec.notch(49.0, 51.0, FS, 2),
    "highpass 14 Hz (order 2)": ba.FilterSpec.highpass(14.0, FS, 2),
    "lowpass 71 Hz (order 2)": ba.FilterSpec.lowpass(71.0, FS, 2),
}
probe = np.array([0.001, 5.0, 14.0, 30.0, 50.0, 71.0, 200.0])

print(f"{'filter':<30}" + "".join(f"{f:>9g}Hz" for f in probe))
for name, spec in filters.items():
    cascade = ba.design_filter(spec)
    mags = np.abs(ba.frequency_response(cascade, probe, FS))
    db = 20 * np.log10(np.maximum(mags, 1e-12))
    print(f"{name:<30}" + "".join(f"{d:>11.1f}" for d in db))
print("(dB; band edges sit at -3.01 dB by construction)\n")

schedule = ba.make_block_schedule(6, 16, 500, 1000, seed=1, blocks_per_class=2)
session = ba.generate_session(
    schedule, channels=8, sample_rate=FS,
    drift=ba.DriftParams(5.0, 0.05, 1.0), evoked=ba.EvokedParams(),
    subject_id="s01", seed=1,
)
spectrum = ba.power_spectrum(session, 4096, 0.5)
print(f"raw drifting session: vlf_fraction(<5 Hz) = "
      f"{ba.vlf_fraction(spectrum, 5.0):.3f}")

hp = ba.apply_filter(ba.design_filter(ba.FilterSpec.highpass(14.0, FS, 2)),
                     session)
spectrum_hp = ba.power_spectrum(hp, 4096, 0.5)
print(f"after 14 Hz highpass: vlf_fraction(<5 Hz) = "
      f"{ba.vlf_fraction(spectrum_hp, 5.0):.3f}")

down = dsp.downsample(
    ba.generate_session(schedule, channels=4, sample_rate=4096.0,
                        drift=ba.DriftParams(), evoked=ba.EvokedParams(),
                        subject_id="s01", seed=2),
    4,
)
print(f"\ndecimation: 4096 Hz -> {down.sample_rate:g} Hz with an order-8 "
      "anti-alias lowpass at 0.8x the new Nyquist")
