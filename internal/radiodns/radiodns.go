// Package radiodns simulates the ETSI TS 103 270 (RadioDNS hybrid radio)
// metadata layer the paper builds on (§1.1: "the basic metadata
// descriptions enabling this service come from the ETSI Standards created
// by the RadioDNS Project"). It provides broadcast service identifiers
// and the program schedule (SPI/EPG) that the buffering and replacement
// logic aligns to.
package radiodns

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Service is one radio service (station).
type Service struct {
	// ID is the short service identifier, e.g. "radio1".
	ID string
	// Name is the human-readable station name.
	Name string
	// GCC is the global country code (ECC+CC) per TS 103 270, e.g. "5e0"
	// for Italy.
	GCC string
	// PI is the RDS programme identification code (FM) in hex.
	PI string
	// Frequency is the FM frequency in units of 10 kHz, e.g. 8990 = 89.9.
	Frequency int
	// StreamURL is the IP stream endpoint.
	StreamURL string
	// BitrateKbps is the stream bitrate (the paper's streams are 96).
	BitrateKbps int
}

// Program is one scheduled broadcast program.
type Program struct {
	ID        string
	ServiceID string
	Title     string
	Start     time.Time
	Duration  time.Duration
	// Categories is the editorial category distribution of the program.
	Categories map[string]float64
	// Replaceable marks programs the broadcaster allows the hybrid client
	// to substitute (ads, filler, syndicated segments). Fixed-point
	// programs (live news bulletins) are not replaceable.
	Replaceable bool
}

// End returns the scheduled end instant.
func (p *Program) End() time.Time { return p.Start.Add(p.Duration) }

// Directory is the registry of services and schedules — the simulated
// SPI server. It is safe for concurrent use.
type Directory struct {
	mu       sync.RWMutex
	services map[string]*Service
	programs map[string][]*Program // service ID -> programs sorted by Start
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		services: make(map[string]*Service),
		programs: make(map[string][]*Program),
	}
}

// Errors returned by lookups.
var (
	ErrUnknownService = errors.New("radiodns: unknown service")
	ErrNoProgram      = errors.New("radiodns: no program scheduled")
)

// AddService registers a service.
func (d *Directory) AddService(s *Service) error {
	if s == nil || s.ID == "" {
		return fmt.Errorf("radiodns: service must have an ID")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.services[s.ID]; dup {
		return fmt.Errorf("radiodns: duplicate service %q", s.ID)
	}
	d.services[s.ID] = s
	return nil
}

// Services returns all services sorted by ID.
func (d *Directory) Services() []*Service {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Service, 0, len(d.services))
	for _, s := range d.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddProgram schedules a program on its service.
func (d *Directory) AddProgram(p *Program) error {
	if p == nil || p.ID == "" || p.ServiceID == "" {
		return fmt.Errorf("radiodns: program must have ID and ServiceID")
	}
	if p.Duration <= 0 {
		return fmt.Errorf("radiodns: program %q must have positive duration", p.ID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.services[p.ServiceID]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownService, p.ServiceID)
	}
	list := d.programs[p.ServiceID]
	idx := sort.Search(len(list), func(i int) bool { return list[i].Start.After(p.Start) })
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = p
	d.programs[p.ServiceID] = list
	return nil
}

// ProgramAt returns the program on air on the service at instant t.
func (d *Directory) ProgramAt(serviceID string, t time.Time) (*Program, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	list := d.programs[serviceID]
	// Last program starting at or before t.
	idx := sort.Search(len(list), func(i int) bool { return list[i].Start.After(t) }) - 1
	if idx < 0 || list[idx].End().Before(t) || list[idx].End().Equal(t) {
		return nil, fmt.Errorf("%w on %q at %v", ErrNoProgram, serviceID, t)
	}
	return list[idx], nil
}

// ProgramsBetween returns the service's programs overlapping [from, to).
func (d *Directory) ProgramsBetween(serviceID string, from, to time.Time) []*Program {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Program
	for _, p := range d.programs[serviceID] {
		if p.Start.Before(to) && p.End().After(from) {
			out = append(out, p)
		}
	}
	return out
}

// NextBoundary returns the next program boundary (start or end) strictly
// after t on the service, which is where the buffering layer can splice
// seamlessly.
func (d *Directory) NextBoundary(serviceID string, t time.Time) (time.Time, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	best := time.Time{}
	for _, p := range d.programs[serviceID] {
		for _, b := range []time.Time{p.Start, p.End()} {
			if b.After(t) && (best.IsZero() || b.Before(best)) {
				best = b
			}
		}
	}
	if best.IsZero() {
		return time.Time{}, fmt.Errorf("%w after %v on %q", ErrNoProgram, t, serviceID)
	}
	return best, nil
}
