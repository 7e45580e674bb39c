package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBindValidation(t *testing.T) {
	b := New()
	if _, err := b.Bind("q", "a..b"); !errors.Is(err, ErrBadPattern) {
		t.Fatalf("empty word err = %v", err)
	}
	if _, err := b.Bind("q", "a.#.b"); !errors.Is(err, ErrBadPattern) {
		t.Fatalf("inner # err = %v", err)
	}
	q1, err := b.Bind("q", "tracking.*")
	if err != nil {
		t.Fatal(err)
	}
	// Rebinding with the same pattern returns the same queue.
	q2, err := b.Bind("q", "tracking.*")
	if err != nil || q1 != q2 {
		t.Fatalf("rebind: %v %v", q2, err)
	}
	if _, err := b.Bind("q", "other.*"); err == nil {
		t.Fatal("conflicting rebind accepted")
	}
}

func TestTopicMatching(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"tracking.gps", "tracking.gps", true},
		{"tracking.gps", "tracking.feedback", false},
		{"tracking.*", "tracking.gps", true},
		{"tracking.*", "tracking.gps.raw", false},
		{"tracking.#", "tracking.gps.raw", true},
		{"tracking.#", "tracking", true},
		{"#", "anything.at.all", true},
		{"*.gps", "tracking.gps", true},
		{"*.gps", "gps", false},
	}
	for _, c := range cases {
		b := New()
		q, err := b.Bind("q", c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		n := b.Publish(c.topic, []byte("x"))
		if got := n == 1; got != c.want {
			t.Errorf("pattern %q topic %q: matched=%v want %v", c.pattern, c.topic, got, c.want)
		}
		if got := q.Len() == 1; got != c.want {
			t.Errorf("pattern %q topic %q: queued=%v want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestPublishFanout(t *testing.T) {
	b := New()
	q1, _ := b.Bind("recommender", "feedback.#")
	q2, _ := b.Bind("analytics", "#")
	q3, _ := b.Bind("other", "tracking.*")
	n := b.Publish("feedback.like", []byte("x"))
	if n != 2 {
		t.Fatalf("fanout = %d, want 2", n)
	}
	if q1.Len() != 1 || q2.Len() != 1 || q3.Len() != 0 {
		t.Fatalf("queue lengths %d/%d/%d", q1.Len(), q2.Len(), q3.Len())
	}
}

func TestPopAckLifecycle(t *testing.T) {
	b := New()
	q, _ := b.Bind("q", "#")
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	b.Publish("t", []byte("one"))
	b.Publish("t", []byte("two"))
	m1, ok := q.Pop()
	if !ok || string(m1.Payload) != "one" {
		t.Fatalf("m1 = %+v ok=%v", m1, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len=%d", q.Len())
	}
}

func TestNotifySignal(t *testing.T) {
	b := New()
	q, _ := b.Bind("q", "#")
	done := make(chan Message, 1)
	go func() {
		<-q.Notify()
		m, ok := q.Pop()
		if ok {
			done <- m
		}
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("t", []byte("hello"))
	select {
	case m := <-done:
		if string(m.Payload) != "hello" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer not notified")
	}
}

func TestConcurrentPublishConsume(t *testing.T) {
	b := New()
	q, _ := b.Bind("q", "events.#")
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Publish("events.e", []byte(fmt.Sprintf("%d-%d", p, i)))
			}
		}(p)
	}
	seen := make(map[string]bool)
	var consumed int
	doneProducing := make(chan struct{})
	go func() { wg.Wait(); close(doneProducing) }()
	deadline := time.After(5 * time.Second)
	for consumed < producers*perProducer {
		m, ok := q.Pop()
		if !ok {
			select {
			case <-deadline:
				t.Fatalf("timeout after %d messages", consumed)
			case <-q.Notify():
			case <-doneProducing:
			case <-time.After(time.Millisecond):
			}
			continue
		}
		if seen[string(m.Payload)] {
			t.Fatalf("duplicate delivery %s", m.Payload)
		}
		seen[string(m.Payload)] = true
		consumed++
	}
}

// splitMatches is topic matching as it was before Publish read the
// topic a word at a time: the topic split into its words first. It is
// the reference topicMatches is held to.
func splitMatches(pattern []string, topic string) bool {
	words := strings.Split(topic, ".")
	for i, pw := range pattern {
		if pw == "#" {
			return true
		}
		if i >= len(words) {
			return false
		}
		if pw != "*" && pw != words[i] {
			return false
		}
	}
	return len(pattern) == len(words)
}

// TestTopicMatchesIsTheSplitMatcher compares topicMatches with the split
// reference on every binding pattern and topic the system uses, and on
// seeded random patterns (with "*" and "#") and topics (with empty words).
func TestTopicMatchesIsTheSplitMatcher(t *testing.T) {
	patterns := []string{
		"tracking.compacted", "feedback.#", "content.ingested.#", "tracking.#",
		"tracking.gps", "prefs.compacted", "recommendations.#", "#", "tracking.*", "*.gps",
	}
	topics := []string{
		"users.registered", "tracking.gps", "tracking.compacted", "prefs.compacted",
		"editorial.injected", "recommendations.planned", "content.ingested.",
		"", ".", "tracking", "tracking.", ".tracking", "tracking..gps",
	}
	for _, k := range []string{"listen", "skip", "like", "dislike"} {
		topics = append(topics, "feedback."+k)
	}
	for _, c := range []string{"art", "food", "technology", "documentary"} {
		topics = append(topics, "content.ingested."+c)
	}
	rng := rand.New(rand.NewSource(5))
	words := []string{"a", "b", "tracking", "gps", ""}
	randomWords := func(wildcards bool) []string {
		out := make([]string, 1+rng.Intn(4))
		for i := range out {
			out[i] = words[rng.Intn(len(words)-1)] // no empty word in a pattern
			if wildcards && rng.Intn(4) == 0 {
				out[i] = "*"
			}
		}
		if wildcards && rng.Intn(3) == 0 {
			out[len(out)-1] = "#"
		}
		return out
	}
	for range 300 {
		patterns = append(patterns, strings.Join(randomWords(true), "."))
		topic := randomWords(false)
		for i := range topic {
			if rng.Intn(8) == 0 {
				topic[i] = ""
			}
		}
		topics = append(topics, strings.Join(topic, "."))
	}
	for _, p := range patterns {
		pw := strings.Split(p, ".")
		for _, topic := range topics {
			if got, want := topicMatches(pw, topic), splitMatches(pw, topic); got != want {
				t.Fatalf("pattern %q, topic %q: matched %v, the split matcher %v", p, topic, got, want)
			}
		}
	}
}

// TestPublishUnmatchedAllocatesNothing: a publish that matches no queue,
// topic and payload built at the call as the system's writes build them,
// allocates nothing; a matched one copies the payload, so the caller
// keeps its buffer.
func TestPublishUnmatchedAllocatesNothing(t *testing.T) {
	b := New()
	if _, err := b.Bind("other", "tracking.#"); err != nil {
		t.Fatal(err)
	}
	user, kind := "user-000-s000017", "dislike"
	if n := testing.AllocsPerRun(100, func() { b.Publish("feedback."+kind, []byte(user)) }); n != 0 {
		t.Fatalf("an unmatched publish allocates %v times", n)
	}
	empty := New()
	if n := testing.AllocsPerRun(100, func() { empty.Publish("users.registered", []byte(user)) }); n != 0 {
		t.Fatalf("a publish to a broker with no queue allocates %v times", n)
	}

	q, err := b.Bind("q", "feedback.*")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(user)
	b.Publish("feedback."+kind, payload)
	copy(payload, "xxxx")
	if m, ok := q.Pop(); !ok || m.Topic != "feedback.dislike" || string(m.Payload) != user {
		t.Fatalf("popped %q %q, published feedback.dislike %q", m.Topic, m.Payload, user)
	}
}

func BenchmarkPublishPop(b *testing.B) {
	br := New()
	q, _ := br.Bind("q", "bench.#")
	payload := []byte("payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("bench.x", payload)
		q.Pop()
	}
}
