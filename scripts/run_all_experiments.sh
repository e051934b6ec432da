#!/bin/sh
# Run all five experiment recipes with their example configs, phase-voltage
# also with physical_mode = true, randomization also with
# randomize_blocks = false, scripts/laser_traces.py and scripts/rate_curves.py,
# all from this checkout's src/; end with the sha256 of every file written.
# Usage: scripts/run_all_experiments.sh [output-dir]
#
# To check that a change keeps every output byte-identical, run this in both
# checkouts and diff the two sha256 lists.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
outdir="${1:-out}"
mkdir -p "$outdir"
for name in phase_voltage randomization bb84_sweep dps_sweep stability; do
    cmd=$(printf '%s' "$name" | tr '_' '-')
    echo "== $name =="
    python3 -m chirplink.cli "$cmd" --config "scripts/configs/$name.cfg" --out "$outdir/$name.csv"
done
echo "== phase_voltage, physical_mode = true =="
sed 's/^physical_mode = false$/physical_mode = true/' scripts/configs/phase_voltage.cfg \
    > "$outdir/phase_voltage_physical.cfg"
python3 -m chirplink.cli phase-voltage --config "$outdir/phase_voltage_physical.cfg" \
    --out "$outdir/phase_voltage_physical.csv"
echo "== randomization, randomize_blocks = false =="
sed 's/^randomize_blocks = true$/randomize_blocks = false/' scripts/configs/randomization.cfg \
    > "$outdir/randomization_fixed.cfg"
python3 -m chirplink.cli randomization --config "$outdir/randomization_fixed.cfg" \
    --out "$outdir/randomization_fixed.csv"
echo "== laser traces =="
python3 scripts/laser_traces.py --outdir "$outdir"
echo "== rate curves =="
python3 scripts/rate_curves.py --outdir "$outdir"
echo "== sha256 =="
for f in phase_voltage.csv randomization.csv randomization.csv.json bb84_sweep.csv \
    bb84_sweep.csv.json dps_sweep.csv dps_sweep.csv.json stability.csv stability.csv.json \
    phase_voltage_physical.cfg phase_voltage_physical.csv randomization_fixed.cfg \
    randomization_fixed.csv randomization_fixed.csv.json \
    gain_switched_trace.csv injection_locked_trace.csv \
    bb84_rate_curve.csv dps_rate_curve.csv; do
    sha256sum "$outdir/$f"
done
