package topology

import (
	"encoding/json"
	"fmt"

	"repro/internal/power"
)

// Carbon accounting generalises the paper's cost axis from joules to
// grams-CO2eq: each DC carries a grid carbon intensity (scalar or 24h
// profile, gCO2eq/kWh) and embodied-carbon coefficients (kgCO2eq per
// vCPU and per GB of DRAM, amortized over EmbodiedAmortYears of
// service). Carbon is derived strictly FROM the facility-energy and
// active-server series — it never feeds back into allocation or
// violation accounting — so a scenario with the default power model
// and zero carbon fields reproduces today's energy columns bit-exactly.

// DefaultGridIntensity is the grid carbon intensity a DC without a
// `grid_intensity` (absent or null) inherits, in gCO2eq/kWh — a
// world-average grid mix. An explicit zero (IntensityProfile{0}) means
// a zero-carbon grid and survives normalisation.
const DefaultGridIntensity = 400.0

// EmbodiedAmortYears is the service life embodied manufacturing
// carbon is amortized over (the cloud-carbon-exporter convention).
const EmbodiedAmortYears = 4

// mjPerKWh converts the simulator's megajoule series to the kWh the
// grid-intensity figures price.
const mjPerKWh = 3.6

// IntensityProfile is a grid carbon intensity in gCO2eq/kWh: one value
// (a static grid mix) or 24 hourly values (a diurnal profile — solar
// valleys at midday, coal plateaus). In fleet JSON it decodes from a
// bare number or an array of 24 numbers. A nil profile reads as zero.
type IntensityProfile []float64

// At returns the intensity during the given hour-of-day. Scalar
// profiles ignore the hour; hourly profiles index hour mod 24.
func (p IntensityProfile) At(hour int) float64 {
	switch len(p) {
	case 0:
		return 0
	case 1:
		return p[0]
	default:
		if hour < 0 {
			hour = -hour
		}
		return p[hour%len(p)]
	}
}

// UnmarshalJSON accepts a scalar intensity or an hourly array. null
// leaves the profile untouched, so it means "absent", not zero carbon.
func (p *IntensityProfile) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var scalar float64
	if err := json.Unmarshal(data, &scalar); err == nil {
		*p = IntensityProfile{scalar}
		return nil
	}
	var hours []float64
	if err := json.Unmarshal(data, &hours); err != nil {
		return fmt.Errorf("grid_intensity must be a number or an array of 24 hourly values (gCO2eq/kWh): %w", err)
	}
	if len(hours) != 24 {
		return fmt.Errorf("grid_intensity profile has %d values, want 24 (one per hour of day)", len(hours))
	}
	*p = IntensityProfile(hours)
	return nil
}

// MarshalJSON writes scalar profiles back as a bare number so resolved
// fleets round-trip through the form they were written in.
func (p IntensityProfile) MarshalJSON() ([]byte, error) {
	if len(p) == 1 {
		return json.Marshal(p[0])
	}
	return json.Marshal([]float64(p))
}

// validate rejects profiles the dispatchers and the accumulators
// cannot price: only scalar or 24-hour shapes, no negative intensity.
func (p IntensityProfile) validate() error {
	if len(p) != 0 && len(p) != 1 && len(p) != 24 {
		return fmt.Errorf("grid_intensity profile has %d values, want a scalar or 24 hourly values", len(p))
	}
	for i, v := range p {
		if v < 0 {
			return fmt.Errorf("grid_intensity value %d is negative (%g gCO2eq/kWh)", i, v)
		}
	}
	return nil
}

// dcCarbon is one DC's precomputed carbon pricing: the (normalised)
// intensity profile and the embodied grams one powered-on server
// accrues per hour of service.
type dcCarbon struct {
	intensity      IntensityProfile
	gPerServerHour float64
}

// dcCarbonOf prices a resolved DC spec against its server platform:
// embodied manufacturing carbon — kgCO2eq per vCPU and per GB —
// amortizes over EmbodiedAmortYears, charged per powered-on
// server-hour, so consolidation that powers servers down saves
// embodied grams exactly as it saves static watts.
func dcCarbonOf(dc DCSpec, m power.Model) dcCarbon {
	kg := float64(m.NumCores())*dc.EmbodiedKgPerVCPU + m.MemGB()*dc.EmbodiedKgPerGB
	return dcCarbon{
		intensity:      dc.GridIntensity,
		gPerServerHour: kg * 1000 / (EmbodiedAmortYears * 365 * 24),
	}
}
