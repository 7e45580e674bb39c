package recommend

import (
	"fmt"
	"time"

	"pphcr/internal/content"
)

// The paper's future work (§3) names "richer contexts: time, activity,
// weather". This file adds weather and activity signals to the Context
// and folds them into the context-based relevance. Unknown signals score
// neutrally, so systems without these sensors behave exactly as before.

// Weather is the coarse weather condition at the listener's position.
type Weather int

// Weather conditions.
const (
	WeatherUnknown Weather = iota
	WeatherClear
	WeatherRain
	WeatherSnow
	WeatherFog
)

// String returns the condition name.
func (w Weather) String() string {
	switch w {
	case WeatherUnknown:
		return "unknown"
	case WeatherClear:
		return "clear"
	case WeatherRain:
		return "rain"
	case WeatherSnow:
		return "snow"
	case WeatherFog:
		return "fog"
	default:
		return fmt.Sprintf("weather(%d)", int(w))
	}
}

// Severity returns how much the condition degrades driving in [0,1].
func (w Weather) Severity() float64 {
	switch w {
	case WeatherRain:
		return 0.4
	case WeatherFog:
		return 0.6
	case WeatherSnow:
		return 0.8
	default:
		return 0
	}
}

// Activity is the listener's inferred activity.
type Activity int

// Activities.
const (
	ActivityUnknown Activity = iota
	ActivityDriving
	ActivityWalking
	ActivityStationary
)

// String returns the activity name.
func (a Activity) String() string {
	switch a {
	case ActivityUnknown:
		return "unknown"
	case ActivityDriving:
		return "driving"
	case ActivityWalking:
		return "walking"
	case ActivityStationary:
		return "stationary"
	default:
		return fmt.Sprintf("activity(%d)", int(a))
	}
}

// The categories weatherScore reads of every item it rates.
var weatherKey, trafficKey = content.KeyOf("weather"), content.KeyOf("traffic")

// weatherScore rates an item for the current weather: in degraded
// conditions, weather and traffic information becomes sharply more
// relevant; everything else is neutral. Unknown weather is neutral for
// all items.
func weatherScore(it *content.Item, w Weather) float64 {
	if w == WeatherUnknown {
		return 0.5
	}
	infoMass := it.Weight(weatherKey) + it.Weight(trafficKey)
	sev := w.Severity()
	// Clear weather: weather/traffic bulletins are mildly de-prioritized.
	if sev == 0 {
		return 0.5 - 0.2*infoMass
	}
	score := 0.5 + sev*infoMass
	if score > 1 {
		score = 1
	}
	return score
}

// activityScore rates duration suitability for the current activity:
// walking sessions are short, so long items are penalized; stationary
// listeners tolerate anything; driving is neutral here because the ΔT
// scheduler owns duration fit for drives.
func activityScore(it *content.Item, a Activity) float64 {
	switch a {
	case ActivityWalking:
		switch {
		case it.Duration <= 5*time.Minute:
			return 0.7
		case it.Duration <= 10*time.Minute:
			return 0.5
		default:
			return 0.3
		}
	case ActivityStationary, ActivityDriving:
		return 0.5
	default:
		return 0.5
	}
}
