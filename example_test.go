package occ_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	occ "repro"
)

// Example opens a three-DC POCC deployment, writes a profile in one data
// center, sees it in another and reads it back as one causal snapshot.
func Example() {
	store, err := occ.Open(occ.Config{
		DataCenters: 3,
		Partitions:  4,
		Engine:      occ.POCC,
		Latency:     occ.AWSProfile(0.05), // 5 % of the paper's Oregon/Virginia/Ireland delays
		Seed:        1,
	})
	check(err)
	defer store.Close()

	oregon, err := store.Session(0)
	check(err)
	check(oregon.Put("user:42:name", []byte("ada")))
	check(oregon.Put("user:42:city", []byte("london")))
	name, err := oregon.Get("user:42:name") // a session reads its own writes at once
	check(err)
	fmt.Printf("oregon reads name = %s\n", name)

	// A remote DC sees a write the moment replication delivers it: POCC
	// waits for no stabilization round.
	ireland, err := store.Session(2)
	check(err)
	fmt.Printf("ireland reads city = %s\n", await(ireland, "user:42:city"))

	// The city depends on the name, so a snapshot holding one holds both.
	snap, err := ireland.ROTx([]string{"user:42:name", "user:42:city"})
	check(err)
	fmt.Printf("ireland RO-TX: name=%s city=%s\n", snap[0], snap[1])
	// Output:
	// oregon reads name = ada
	// ireland reads city = london
	// ireland RO-TX: name=ada city=london
}

// ExampleSession_Get is the photo-then-comment anomaly causal consistency
// rules out. Alice posts a photo and then a comment on it from DC0; the two
// live on different partitions, and the photo partition's link to DC1 is
// cut. Bob in DC1 sees the comment at once, but his photo read carries the
// comment's dependencies, so DC1 holds it until the photo arrives instead of
// answering "no photo".
func ExampleSession_Get() {
	store, err := occ.Open(occ.Config{
		DataCenters: 2,
		Partitions:  2,
		Engine:      occ.POCC,
		Latency:     occ.UniformProfile(100*time.Microsecond, 2*time.Millisecond),
		Seed:        7,
	})
	check(err)
	defer store.Close()
	photoKey, commentKey := keyOn(store, 0, "photo:%d"), keyOn(store, 1, "comment:%d")

	store.PartitionReplication(0, 1, store.PartitionOf(photoKey), true)
	alice, err := store.Session(0)
	check(err)
	check(alice.Put(photoKey, []byte("cat.jpg")))
	check(alice.Put(commentKey, []byte("look at my cat!")))

	bob, err := store.Session(1)
	check(err)
	fmt.Printf("bob sees comment: %s\n", await(bob, commentKey))

	photo := make(chan []byte)
	go func() {
		v, err := bob.Get(photoKey)
		check(err)
		photo <- v
	}()
	select {
	case v := <-photo:
		fmt.Printf("photo read returned early: %q\n", v)
	case <-time.After(50 * time.Millisecond):
		fmt.Println("photo read pending 50 ms later")
	}

	store.PartitionReplication(0, 1, store.PartitionOf(photoKey), false)
	fmt.Printf("after the heal bob sees photo: %s\n", <-photo)
	fmt.Println("blocked:", store.Stats().BlockedOperations > 0)
	// Output:
	// bob sees comment: look at my cat!
	// photo read pending 50 ms later
	// after the heal bob sees photo: cat.jpg
	// blocked: true
}

// ExampleSession_ROTx reads a two-key record that a DC0 writer keeps
// updating: the detail row first, then the summary that depends on it, both
// tagged with the round. A DC1 reader fetches the pair in one RO-TX, and
// never gets a summary from a newer round than its detail: a causal snapshot
// that holds the summary of round n holds everything that summary depends
// on. Two plain GETs, detail first, can tear the pair — each picks the
// freshest version at its own moment — though how often depends on timing.
func ExampleSession_ROTx() {
	const rounds = 100
	store, err := occ.Open(occ.Config{
		DataCenters: 2,
		Partitions:  4,
		Engine:      occ.POCC,
		Latency:     occ.AWSProfile(0.05),
		JitterFrac:  0.4,
		Seed:        17,
	})
	check(err)
	defer store.Close()
	detailKey, summaryKey := keyOn(store, 0, "order:%d:items"), keyOn(store, 1, "order:%d:summary")
	store.Seed(detailKey, []byte("round=0"))
	store.Seed(summaryKey, []byte("round=0"))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer, err := store.Session(0)
		check(err)
		for r := 1; r <= rounds; r++ {
			check(writer.Put(detailKey, []byte(fmt.Sprintf("round=%d", r))))
			check(writer.Put(summaryKey, []byte(fmt.Sprintf("round=%d", r))))
			time.Sleep(time.Millisecond)
		}
	}()

	reader, err := store.Session(1)
	check(err)
	torn := 0
	for summary := 0; summary < rounds; time.Sleep(500 * time.Microsecond) {
		snap, err := reader.ROTx([]string{detailKey, summaryKey})
		check(err)
		summary = roundOf(snap[1])
		if summary > roundOf(snap[0]) {
			torn++
		}
	}
	wg.Wait()
	fmt.Printf("rounds: %d\ntorn snapshots: %d\n", rounds, torn)
	// Output:
	// rounds: 100
	// torn snapshots: 0
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// await polls a GET until key has a visible value.
func await(s *occ.Session, key string) []byte {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		v, err := s.Get(key)
		check(err)
		if v != nil {
			return v
		}
	}
	panic("never visible: " + key)
}

// keyOn returns the first key formatted from pattern that lands on partition.
func keyOn(store *occ.Store, partition int, pattern string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf(pattern, i); store.PartitionOf(k) == partition {
			return k
		}
	}
}

// roundOf parses the round out of a "round=N" value.
func roundOf(v []byte) int {
	n, err := strconv.Atoi(strings.TrimPrefix(string(v), "round="))
	check(err)
	return n
}
