// Package dashboard implements the pages of the web-based control
// dashboard of the demonstration (§2.2): it "visualizes the user's past
// trajectories, content preference, and the details of the
// recommendation process" (Fig 5). The pages only read; httpapi mounts
// them beside its own routes, and its POST /dashboard/inject is the
// dashboard's one write, the "manual injection of recommendations"
// (Fig 6).
//
// The trajectory map is rendered server-side as SVG — raw GPS fixes,
// the RDP-simplified route and DBSCAN staying points — so the artifact
// of Fig 5 is regenerable without a tile server.
package dashboard

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pphcr"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
	"pphcr/internal/trajectory"
)

// TrajectoryView bundles what the Fig 5 map shows for one user.
type TrajectoryView struct {
	Fixes      geo.Polyline
	Simplified geo.Polyline
	StayPoints []trajectory.StayPoint
}

// buildTrajectoryView assembles map data from the tracker and the cached
// compaction. Compaction keeps a closed trip only as its RDP route, so
// the path drawn is those routes followed by the raw unfolded fixes.
func buildTrajectoryView(sys *pphcr.System, userID string) (TrajectoryView, error) {
	path := sys.Tracker.Path(userID)
	if len(path) == 0 {
		return TrajectoryView{}, fmt.Errorf("dashboard: no tracking data for %q", userID)
	}
	view := TrajectoryView{Fixes: path}
	view.Simplified = trajectory.RDP(view.Fixes, 30)
	if cm, ok := sys.MobilityModel(userID); ok {
		view.StayPoints = cm.StayPoints
	}
	return view, nil
}

// RenderSVG draws the trajectory view as a standalone SVG document.
func RenderSVG(v TrajectoryView, width, height int) string {
	if width <= 0 {
		width = 800
	}
	if height <= 0 {
		height = 600
	}
	bounds := v.Fixes.Bounds()
	for _, sp := range v.StayPoints {
		bounds = bounds.Extend(sp.Center)
	}
	// Pad 5%.
	padLat := (bounds.MaxLat - bounds.MinLat) * 0.05
	padLon := (bounds.MaxLon - bounds.MinLon) * 0.05
	if padLat == 0 {
		padLat = 1e-4
	}
	if padLon == 0 {
		padLon = 1e-4
	}
	bounds.MinLat -= padLat
	bounds.MaxLat += padLat
	bounds.MinLon -= padLon
	bounds.MaxLon += padLon
	px := func(p geo.Point) (float64, float64) {
		x := (p.Lon - bounds.MinLon) / (bounds.MaxLon - bounds.MinLon) * float64(width)
		y := (bounds.MaxLat - p.Lat) / (bounds.MaxLat - bounds.MinLat) * float64(height)
		return x, y
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="#f4f2ee"/>`)
	writePath := func(pl geo.Polyline, stroke string, strokeWidth float64, dashed bool) {
		if len(pl) < 2 {
			return
		}
		sb.WriteString(`<polyline fill="none" stroke="`)
		sb.WriteString(stroke)
		fmt.Fprintf(&sb, `" stroke-width="%.1f"`, strokeWidth)
		if dashed {
			sb.WriteString(` stroke-dasharray="6,4"`)
		}
		sb.WriteString(` points="`)
		for i, p := range pl {
			x, y := px(p)
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.1f,%.1f", x, y)
		}
		sb.WriteString(`"/>`)
	}
	writePath(v.Fixes, "#7aa6d9", 1.5, false)     // raw GPS
	writePath(v.Simplified, "#d9534f", 2.5, true) // RDP route
	for _, sp := range v.StayPoints {
		x, y := px(sp.Center)
		r := 5 + float64(sp.Visits)
		if r > 20 {
			r = 20
		}
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#5cb85c" fill-opacity="0.7" stroke="#2d672d"/>`, x, y, r)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle">%d visits</text>`, x, y-r-4, sp.Visits)
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// Trajectory serves GET /dashboard/trajectory?user=: the Fig 5 map.
func Trajectory(sys *pphcr.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	view, err := buildTrajectoryView(sys, user)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	width, _ := strconv.Atoi(r.URL.Query().Get("w"))
	height, _ := strconv.Atoi(r.URL.Query().Get("h"))
	w.Header().Set("Content-Type", "image/svg+xml")
	if _, err := w.Write([]byte(RenderSVG(view, width, height))); err != nil {
		return
	}
}

var recTemplate = template.Must(template.New("recs").Parse(`<!DOCTYPE html>
<html><head><title>PPHCR Dashboard — {{.User}}</title></head>
<body>
<h1>Recommendations for {{.User}}</h1>
<table border="1" cellpadding="4">
<tr><th>#</th><th>Item</th><th>Program</th><th>Category</th><th>Duration</th>
<th>Content</th><th>Context</th><th>Compound</th></tr>
{{range $i, $r := .Rows}}
<tr><td>{{$i}}</td><td>{{$r.Title}}</td><td>{{$r.Program}}</td><td>{{$r.Category}}</td>
<td>{{$r.Duration}}</td><td>{{printf "%.3f" $r.Content}}</td>
<td>{{printf "%.3f" $r.Context}}</td><td>{{printf "%.3f" $r.Compound}}</td></tr>
{{end}}
</table>
</body></html>`))

type recRow struct {
	Title, Program, Category string
	Duration                 time.Duration
	Content, Context         float64
	Compound                 float64
}

// Recommendations serves GET /dashboard/recommendations?user=: the
// listener's ranked list as their app would fetch it next. It previews:
// pending injections show pinned first and stay pending.
func Recommendations(sys *pphcr.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		http.Error(w, "user parameter required", http.StatusBadRequest)
		return
	}
	now := time.Now().UTC()
	if ts := r.URL.Query().Get("unix"); ts != "" {
		if v, err := strconv.ParseInt(ts, 10, 64); err == nil {
			now = time.Unix(v, 0).UTC()
		}
	}
	ranked := sys.Preview(user, recommend.Context{Now: now}, 10)
	rows := make([]recRow, len(ranked))
	for i, sc := range ranked {
		rows[i] = recRow{
			Title: sc.Item.Title, Program: sc.Item.Program,
			Category: sc.Item.TopCategory(), Duration: sc.Item.Duration,
			Content: sc.Content, Context: sc.Context, Compound: sc.Compound,
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := recTemplate.Execute(w, struct {
		User string
		Rows []recRow
	}{user, rows}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Preferences serves GET /dashboard/preferences?user=: the listener's
// category preference vector as JSON.
func Preferences(sys *pphcr.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		http.Error(w, "user parameter required", http.StatusBadRequest)
		return
	}
	now := time.Now().UTC()
	if ts := r.URL.Query().Get("unix"); ts != "" {
		if v, err := strconv.ParseInt(ts, 10, 64); err == nil {
			now = time.Unix(v, 0).UTC()
		}
	}
	prefs := sys.Preferences(user, now).Map()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(prefs); err != nil {
		return
	}
}
