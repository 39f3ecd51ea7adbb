"""Logic-in-memory adders on complementary resistive switches.

Two simulation levels share one microcode format: a behavioral level
that applies the switch update rule symbolically, and a device level
that integrates an electrochemical filament model through every pulse
and decides bits from measured spike currents.
"""

from .ecm import EcmParams
from .executor import calibrate_pulse, run_behavioral, run_device
from .microcode import gen_pc_adder, gen_tc_adder

__version__ = "0.1.0"
