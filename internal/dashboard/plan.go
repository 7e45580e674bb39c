package dashboard

import (
	"html/template"
	"net/http"
	"time"

	"pphcr"
)

// The plan view shows "the details of the recommendation process"
// (§2.2): the mobility prediction behind the last proactive decision,
// the scheduled items with their relevance decomposition and deadlines,
// and — crucially for editorial trust — why candidates were dropped.

var planTemplate = template.Must(template.New("plan").Parse(`<!DOCTYPE html>
<html><head><title>PPHCR Plan — {{.User}}</title></head>
<body>
<h1>Last proactive plan for {{.User}}</h1>
<p>destination place {{.Dest}} (confidence {{printf "%.2f" .Confidence}}),
ΔT {{.DeltaT}}, proactive: {{.Proactive}}{{if .Reason}} — {{.Reason}}{{end}}</p>
<h2>Scheduled items</h2>
<table border="1" cellpadding="4">
<tr><th>start</th><th>item</th><th>duration</th><th>deadline</th>
<th>content</th><th>context</th><th>compound</th></tr>
{{range .Items}}
<tr><td>+{{.Start}}</td><td>{{.Title}}</td><td>{{.Duration}}</td><td>{{.Deadline}}</td>
<td>{{printf "%.3f" .Content}}</td><td>{{printf "%.3f" .Context}}</td>
<td>{{printf "%.3f" .Compound}}</td></tr>
{{end}}
</table>
<h2>Dropped candidates</h2>
<ul>
{{range .Dropped}}<li>{{.}}</li>{{end}}
</ul>
</body></html>`))

type planRow struct {
	Start, Duration, Deadline  string
	Title                      string
	Content, Context, Compound float64
}

// Plan serves GET /dashboard/plan?user=: the listener's last proactive
// plan.
func Plan(sys *pphcr.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		http.Error(w, "user parameter required", http.StatusBadRequest)
		return
	}
	tp, ok := sys.LastPlan(user)
	if !ok {
		http.Error(w, "no plan recorded for "+user, http.StatusNotFound)
		return
	}
	rows := make([]planRow, 0, len(tp.Plan.Items))
	for _, it := range tp.Plan.Items {
		row := planRow{
			Start:    it.StartOffset.Round(time.Second).String(),
			Duration: it.Scored.Item.Duration.String(),
			Deadline: "-",
			Title:    it.Scored.Item.Title,
			Content:  it.Scored.Content,
			Context:  it.Scored.Context,
			Compound: it.Scored.Compound,
		}
		if it.HasDeadline {
			row.Deadline = "+" + it.Deadline.Round(time.Second).String()
		}
		rows = append(rows, row)
	}
	var dropped []string
	for _, d := range tp.Plan.Dropped {
		dropped = append(dropped, d.Scored.Item.Title+" — "+d.Reason)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := planTemplate.Execute(w, struct {
		User       string
		Dest       int
		Confidence float64
		DeltaT     string
		Proactive  bool
		Reason     string
		Items      []planRow
		Dropped    []string
	}{
		User:       user,
		Dest:       int(tp.Prediction.Dest),
		Confidence: tp.Prediction.Confidence,
		DeltaT:     tp.Prediction.DeltaT.Round(time.Second).String(),
		Proactive:  tp.Proactive,
		Reason:     tp.Reason,
		Items:      rows,
		Dropped:    dropped,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
