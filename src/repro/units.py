"""Physical constants and platform defaults.

The values mirror the experimental platform used in the paper: an
X-Gene2 ARMv8 server with four Micron DDR3 DIMMs (8 GB each, two ranks
per DIMM, 1866 MT/s), characterised under relaxed refresh period
(``TREFP``), lowered supply voltage (``VDD``) and elevated DIMM
temperature.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
MS = 1e-3
MINUTE = 60.0
HOUR = 3600.0

# --- capacity ---------------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

WORD_BYTES = 8          #: a 64-bit word, the ECC protection granularity
WORD_BITS = 64          #: data bits per protected word
ECC_BITS = 8            #: SECDED check bits per 64-bit word
CODEWORD_BITS = WORD_BITS + ECC_BITS

# --- platform defaults (X-Gene2 + Micron DDR3 DIMMs) ------------------------
NOMINAL_TREFP_S = 64 * MS       #: JEDEC nominal refresh period
MAX_TREFP_S = 2.283             #: maximum refresh period configurable on X-Gene2
NOMINAL_VDD_V = 1.5             #: DDR3 nominal supply voltage
MIN_VDD_V = 1.428               #: lowest stable VDD found in the paper
NOMINAL_TEMP_C = 45.0           #: ambient DIMM temperature without heaters
MAX_TEMP_C = 70.0               #: vendor-specified maximum operating temperature

CPU_FREQ_HZ = 2.4e9             #: X-Gene2 core frequency
NUM_CORES = 8
NUM_MCUS = 4
DIMMS_PER_MCU = 1
RANKS_PER_DIMM = 2
CHIPS_PER_RANK = 9              #: 8 data chips + 1 ECC chip (x8 devices)
BENCHMARK_FOOTPRINT_BYTES = 8 * GIB   #: every benchmark allocates 8 GB in the paper

#: refresh periods (seconds) swept in the characterization campaign (Fig. 7)
TREFP_SWEEP_S = (0.618, 1.173, 1.727, 2.283)
#: refresh periods used for the UE study at 70C (Fig. 9)
TREFP_UE_SWEEP_S = (1.450, 1.727, 2.283)

CHARACTERIZATION_DURATION_S = 2 * HOUR   #: duration of one characterization run
