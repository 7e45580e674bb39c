// Package broker is the in-memory substitute for the RabbitMQ
// communication layer in the paper's architecture (Fig 3): an AMQP-style
// topic exchange with named queues and wildcard bindings. The PPHCR
// server components only use pub/sub and work-queue semantics: Pop hands
// a message to its consumer, and the broker keeps no copy.
package broker

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Message is one queued payload.
type Message struct {
	Topic   string
	Payload []byte
}

// Broker is a topic exchange. It is safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	queues map[string]*Queue
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{queues: make(map[string]*Queue)}
}

// ErrBadPattern reports a malformed binding pattern.
var ErrBadPattern = errors.New("broker: invalid binding pattern")

// Queue is a named, bound message queue. Consumers Pop messages.
type Queue struct {
	pattern []string

	mu      sync.Mutex
	pending []Message     // undelivered
	notify  chan struct{} // signaled on new pending messages
}

// Bind declares a queue bound to the topic pattern. Patterns use
// AMQP-style matching over dot-separated words: "*" matches exactly one
// word, "#" matches zero or more trailing words. Re-binding an existing
// queue name returns the existing queue only if the pattern matches,
// otherwise an error.
func (b *Broker) Bind(queueName, pattern string) (*Queue, error) {
	words := strings.Split(pattern, ".")
	for i, w := range words {
		if w == "" {
			return nil, fmt.Errorf("%w: empty word in %q", ErrBadPattern, pattern)
		}
		if w == "#" && i != len(words)-1 {
			return nil, fmt.Errorf("%w: '#' only allowed at the end in %q", ErrBadPattern, pattern)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if q, ok := b.queues[queueName]; ok {
		if strings.Join(q.pattern, ".") != pattern {
			return nil, fmt.Errorf("broker: queue %q already bound to %q", queueName, strings.Join(q.pattern, "."))
		}
		return q, nil
	}
	q := &Queue{
		pattern: words,
		notify:  make(chan struct{}, 1),
	}
	b.queues[queueName] = q
	return q, nil
}

// Publish routes the payload to every queue whose binding matches the
// topic and returns the number of queues that received it. The queues
// get a copy of the topic and payload, so the caller keeps both; a
// publish no queue matches allocates nothing.
func (b *Broker) Publish(topic string, payload []byte) int {
	var matched []*Queue
	b.mu.Lock()
	for _, q := range b.queues {
		if topicMatches(q.pattern, topic) {
			matched = append(matched, q)
		}
	}
	b.mu.Unlock()
	if len(matched) == 0 {
		return 0
	}
	msg := Message{Topic: strings.Clone(topic), Payload: bytes.Clone(payload)}
	for _, q := range matched {
		q.push(msg)
	}
	return len(matched)
}

// topicMatches implements AMQP topic matching of the dot-separated topic,
// read a word at a time.
func topicMatches(pattern []string, topic string) bool {
	rest, more := topic, true // more: words of the topic are left in rest
	for _, pw := range pattern {
		if pw == "#" {
			return true // matches the rest, including nothing
		}
		if !more {
			return false
		}
		var w string
		w, rest, more = strings.Cut(rest, ".")
		if pw != "*" && pw != w {
			return false
		}
	}
	return !more
}

func (q *Queue) push(m Message) {
	q.mu.Lock()
	q.pending = append(q.pending, m)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Len returns the number of pending (undelivered) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Pop hands the next pending message to the caller without blocking. ok
// is false when the queue is empty.
func (q *Queue) Pop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return Message{}, false
	}
	m := q.pending[0]
	q.pending = q.pending[1:]
	return m, true
}

// Notify returns a channel that receives a signal when new messages
// arrive (coalesced). Use together with Pop for blocking consumption.
func (q *Queue) Notify() <-chan struct{} { return q.notify }
