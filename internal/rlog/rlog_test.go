package rlog

import (
	"sync"
	"testing"
	"time"
)

// appendN appends values v..v+n-1 as droppable events, requiring each
// store outcome to match want.
func appendN(t *testing.T, l *Log[int], from, n int, want bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := l.Append(from+i, true, nil); got != want {
			t.Fatalf("append %d stored=%v, want %v", from+i, got, want)
		}
	}
}

// Sequences are monotonic from zero and contiguous for stored entries.
func TestLogSequencesAreContiguous(t *testing.T) {
	l := New[int](16, Block)
	appendN(t, l, 0, 10, true)
	if l.NextSeq() != 10 || l.FirstRetained() != 0 {
		t.Fatalf("next %d first %d", l.NextSeq(), l.FirstRetained())
	}
	r := l.ReaderFrom(0)
	for i := 0; i < 10; i++ {
		it, ok := r.Next(nil)
		if !ok || it.Gap != nil || it.Seq != int64(i) || it.Value != i {
			t.Fatalf("read %d: %+v ok=%v", i, it, ok)
		}
	}
	l.Close()
	if _, ok := r.Next(nil); ok {
		t.Fatal("closed drained log still yields items")
	}
}

// Capacity rounds up to a power of two and the ring retains exactly that
// many entries once everyone has consumed them.
func TestLogCapacityPowerOfTwo(t *testing.T) {
	l := New[int](100, DropOldest)
	if l.Capacity() != 128 {
		t.Fatalf("capacity %d, want 128", l.Capacity())
	}
	appendN(t, l, 0, 300, true)
	if got := l.FirstRetained(); got != 300-128 {
		t.Fatalf("first retained %d, want %d", got, 300-128)
	}
}

// Block policy: the writer must not overwrite an unread entry — it waits
// for the slowest attached reader, then proceeds.
func TestLogBlockPolicyBackpressures(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 8, true) // ring full, reader at 0

	stored := make(chan bool)
	go func() { stored <- l.Append(8, true, nil) }()
	select {
	case <-stored:
		t.Fatal("append succeeded over an unread full ring")
	case <-time.After(20 * time.Millisecond):
	}
	if it, ok := r.Next(nil); !ok || it.Seq != 0 {
		t.Fatalf("reader got %+v", it)
	}
	if ok := <-stored; !ok {
		t.Fatal("append failed after space freed")
	}
	// No drops, no gaps on the block path.
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d on block policy", l.Dropped())
	}
	r.Detach()
}

// Block policy aborts: a writer waiting on a full ring must release when
// the abort channel fires (the registration was cancelled).
func TestLogBlockAppendAborts(t *testing.T) {
	l := New[int](8, Block)
	l.ReaderFrom(0) // pin the floor
	appendN(t, l, 0, 8, true)
	abort := make(chan struct{})
	stored := make(chan bool)
	go func() { stored <- l.Append(8, true, abort) }()
	close(abort)
	if ok := <-stored; ok {
		t.Fatal("aborted append reported stored")
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", l.Dropped())
	}
}

// Block is lossless for terminal events too: an end marker appended over
// a lagging reader's full ring waits for room rather than overwrite the
// reader's next event, and lands by overwriting only once abort fires.
func TestLogBlockTerminalEventWaitsForReader(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 8, true)
	abort := make(chan struct{})
	stored := make(chan bool)
	go func() { stored <- l.Append(8, false, abort) }()
	select {
	case <-stored:
		t.Fatal("terminal event overwrote an unread entry on a block log")
	case <-time.After(20 * time.Millisecond):
	}
	for want := int64(0); want <= 8; want++ {
		it, ok := r.Next(nil)
		if !ok || it.Gap != nil || it.Seq != want {
			t.Fatalf("read %+v, want seq %d", it, want)
		}
		if want == 0 && !<-stored {
			t.Fatal("terminal event not stored once room freed")
		}
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d on block policy", l.Dropped())
	}

	// Aborted (the registration was cancelled): the terminal event still
	// lands, overwriting the oldest unread entry.
	appendN(t, l, 9, 8, true) // the ring holds eight unread entries again
	go func() { stored <- l.Append(99, false, abort) }()
	close(abort)
	if !<-stored {
		t.Fatal("aborted terminal event did not land")
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped %d after the aborted wait, want 1", l.Dropped())
	}
}

// DropOldest: the writer never blocks; a trailing reader observes one
// gap covering exactly the overwritten range, then a contiguous tail.
func TestLogDropOldestGapsTrailingReader(t *testing.T) {
	l := New[int](8, DropOldest)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 20, true) // 12 oldest overwritten
	if l.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", l.Dropped())
	}
	it, ok := r.Next(nil)
	if !ok || it.Gap == nil || it.Gap.From != 0 || it.Gap.To != 12 {
		t.Fatalf("first read %+v, want gap [0,12)", it)
	}
	for i := 12; i < 20; i++ {
		it, ok := r.Next(nil)
		if !ok || it.Gap != nil || it.Value != i {
			t.Fatalf("read %+v, want %d", it, i)
		}
	}
}

// A detached reader parks the retention floor, so a Block writer keeps
// retaining from the disconnect point and a resumed reader is gap-free.
func TestLogDetachParksFloorForResume(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 4, true)
	for i := 0; i < 4; i++ {
		r.Next(nil)
	}
	r.Detach() // consumer disconnects at seq 4

	appendN(t, l, 4, 8, true) // exactly fills [4,12) — must not block or drop
	done := make(chan bool)
	go func() { done <- l.Append(12, true, nil) }()
	select {
	case <-done:
		t.Fatal("writer overwrote the parked floor")
	case <-time.After(20 * time.Millisecond):
	}

	r2 := l.ReaderFrom(4) // resume where we left
	for i := 4; i < 12; i++ {
		it, ok := r2.Next(nil)
		if !ok || it.Gap != nil || it.Value != i {
			t.Fatalf("resumed read %+v, want %d", it, i)
		}
	}
	if ok := <-done; !ok {
		t.Fatal("writer did not resume after the reader caught up")
	}
	r2.Detach()
}

// Attaching a reader can raise the retention floor (live tail past a
// parked floor); a Block writer waiting on the old floor must wake and
// proceed rather than deadlock with its newly-connected consumer.
func TestLogReaderFromWakesBlockedWriter(t *testing.T) {
	l := New[int](8, Block)
	appendN(t, l, 0, 8, true) // ring full, parked floor at 0

	stored := make(chan bool)
	go func() { stored <- l.Append(8, true, nil) }()
	select {
	case <-stored:
		t.Fatal("append succeeded over an unread full ring")
	case <-time.After(20 * time.Millisecond):
	}

	r := l.ReaderFrom(-1) // attach at the live tail: floor jumps 0 -> 8
	select {
	case ok := <-stored:
		if !ok {
			t.Fatal("append failed after the floor advanced")
		}
	case <-time.After(time.Second):
		t.Fatal("writer still blocked after a tail reader raised the floor")
	}
	if it, ok := r.Next(nil); !ok || it.Gap != nil || it.Seq != 8 || it.Value != 8 {
		t.Fatalf("tail reader got %+v ok=%v, want seq 8", it, ok)
	}
	r.Detach()
}

// Sample: under backlog pressure droppable events are decimated, the
// drop counter accounts for them, and non-droppable events always land.
func TestLogSampleDecimatesUnderPressure(t *testing.T) {
	l := New[int](16, Sample)
	l.ReaderFrom(0) // floor pinned at 0: backlog grows with every append
	stored := 0
	for i := 0; i < 64; i++ {
		if l.Append(i, true, nil) {
			stored++
		}
	}
	if stored >= 64 || stored < 8 {
		t.Fatalf("sample stored %d of 64", stored)
	}
	if l.Dropped() != int64(64-stored) {
		t.Fatalf("dropped %d, stored %d", l.Dropped(), stored)
	}
	if !l.Append(999, false, nil) {
		t.Fatal("non-droppable event shed by sampling")
	}
}

// Late reader at a negative seq tails the log: history is skipped.
func TestLogReaderLiveTail(t *testing.T) {
	l := New[int](8, DropOldest)
	appendN(t, l, 0, 5, true)
	r := l.ReaderFrom(-1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		l.Append(100, true, nil)
	}()
	it, ok := r.Next(nil)
	if !ok || it.Value != 100 || it.Seq != 5 {
		t.Fatalf("tail read %+v", it)
	}
}

// Readers abort promptly when their consumer goes away mid-wait.
func TestLogReaderAborts(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	abort := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := r.Next(abort)
		done <- ok
	}()
	close(abort)
	if ok := <-done; ok {
		t.Fatal("aborted read returned an item")
	}
	r.Detach()
}

// Concurrent writer + several readers + churn under -race: every reader
// sees a monotone, gap-annotated sequence with no duplicates.
func TestLogConcurrentReadersRace(t *testing.T) {
	l := New[int](32, DropOldest)
	const total = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := l.ReaderFrom(0)
			defer r.Detach()
			last := int64(-1)
			for {
				it, ok := r.Next(nil)
				if !ok {
					return
				}
				if it.Gap != nil {
					if it.Gap.To <= it.Gap.From || it.Gap.From <= last {
						panic("bad gap")
					}
					last = it.Gap.To - 1
					continue
				}
				if it.Seq <= last {
					panic("sequence went backwards")
				}
				last = it.Seq
			}
		}(w)
	}
	for i := 0; i < total; i++ {
		l.Append(i, true, nil)
	}
	l.Close()
	wg.Wait()
	if l.NextSeq() != total {
		t.Fatalf("next seq %d", l.NextSeq())
	}
}

// The spill serves evicted entries so a far-behind reader resumes with
// no gap.
func TestLogFileSpillServesEvicted(t *testing.T) {
	spill, err := NewFileSpill[int](t.TempDir(), SpillConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	l := New[int](8, DropOldest)
	l.SetSpill(spill)
	appendN(t, l, 0, 40, true) // 32 evicted into the spill
	if spill.Entries() != 32 {
		t.Fatalf("spill holds %d entries, want 32", spill.Entries())
	}
	if got := l.Dropped(); got != 0 {
		t.Fatalf("spilled evictions counted dropped: %d", got)
	}
	r := l.ReaderFrom(0)
	for i := 0; i < 40; i++ {
		it, ok := r.Next(nil)
		if !ok || it.Gap != nil || it.Value != i || it.Seq != int64(i) {
			t.Fatalf("spill-backed read %d: %+v", i, it)
		}
	}
	r.Detach()
}

// A budget-bounded spill under DropOldest: old segments are collected,
// and reads below the retained window gap exactly to the spill's first
// retained sequence rather than failing or skipping the whole window.
func TestLogFileSpillBoundedBudget(t *testing.T) {
	spill, err := NewFileSpill[int](t.TempDir(), SpillConfig{SegmentBytes: 64, RetainBytes: 192})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	l := New[int](8, DropOldest)
	l.SetSpill(spill)
	appendN(t, l, 0, 64, true) // 56 evicted; the budget prunes the oldest segments
	if got := spill.SizeBytes(); got > 192 {
		t.Fatalf("spill size %d exceeds its 192-byte budget", got)
	}
	low, ok := spill.FirstRetained()
	if !ok || low <= 0 || low >= 56 {
		t.Fatalf("first retained %d ok=%v, want pruned window inside (0,56)", low, ok)
	}
	r := l.ReaderFrom(0)
	it, ok := r.Next(nil)
	if !ok || it.Gap == nil || it.Gap.From != 0 || it.Gap.To != low {
		t.Fatalf("first read %+v, want gap [0,%d)", it, low)
	}
	for i := int(low); i < 64; i++ {
		it, ok := r.Next(nil)
		if !ok || it.Gap != nil || it.Value != i {
			t.Fatalf("read %+v, want %d", it, i)
		}
	}
	r.Detach()
}

// Acks move the retention floor to the acknowledged position: under
// Block the writer may evict read-but-acked entries, and waits on the
// first read-but-unacked one until the ack arrives.
func TestLogAckMovesRetentionFloor(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 8, true)
	for i := 0; i < 8; i++ {
		if it, ok := r.Next(nil); !ok || it.Value != i {
			t.Fatalf("read %d: %+v ok=%v", i, it, ok)
		}
	}
	if got := r.Ack(3); got != 3 {
		t.Fatalf("Ack(3) = %d", got)
	}
	if got := l.AckedSeq(); got != 3 {
		t.Fatalf("AckedSeq = %d, want 3", got)
	}
	// Floor is now 4, not the cursor (8): exactly four entries may be
	// evicted before the writer must wait.
	appendN(t, l, 8, 4, true)
	stored := make(chan bool)
	go func() { stored <- l.Append(12, true, nil) }()
	select {
	case <-stored:
		t.Fatal("append evicted a read-but-unacked entry")
	case <-time.After(20 * time.Millisecond):
	}
	if got := r.Ack(7); got != 7 {
		t.Fatalf("Ack(7) = %d", got)
	}
	if !<-stored {
		t.Fatal("append failed after ack freed the floor")
	}
	r.Detach()
}

// An acking reader parks its acknowledged position on detach, and an
// out-of-band Log.Ack lowers the floor below a parked cursor — both
// sides of exact resume-after-crash.
func TestLogAckParksAckedFloor(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 8, true)
	for i := 0; i < 8; i++ {
		r.Next(nil)
	}
	r.Ack(5)
	r.Detach() // parks 6 (one past the ack), not the cursor 8
	// Six more entries may land (evicting acked 0..5, blocking on 6).
	appendN(t, l, 8, 6, true)
	stored := make(chan bool)
	go func() { stored <- l.Append(14, true, nil) }()
	select {
	case <-stored:
		t.Fatal("append evicted an unacked parked entry")
	case <-time.After(20 * time.Millisecond):
	}
	// The consumer acks out of band (no reader attached) and the writer
	// resumes.
	if got := l.Ack(6); got != 6 {
		t.Fatalf("Log.Ack(6) = %d", got)
	}
	if !<-stored {
		t.Fatal("append failed after out-of-band ack")
	}
}

// A pager reads history without parking the retention floor on detach.
func TestLogPagerDoesNotPark(t *testing.T) {
	l := New[int](8, Block)
	r := l.ReaderFrom(0)
	appendN(t, l, 0, 8, true)
	for i := 0; i < 8; i++ {
		r.Next(nil)
	}
	r.Detach() // parks 8
	p := l.PagerFrom(0)
	for i := 0; i < 3; i++ {
		if it, ok := p.Next(nil); !ok || it.Value != i {
			t.Fatalf("pager read %d: %+v ok=%v", i, it, ok)
		}
	}
	p.Detach() // must not park 3
	// The floor is still the real reader's parked 8, so a full ring of
	// appends proceeds without blocking.
	appendN(t, l, 8, 8, true)
}

// ParsePolicy resolves every published name and rejects junk.
func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"":                      Block,
		"block":                 Block,
		"drop-oldest":           DropOldest,
		"sample-under-pressure": Sample,
	} {
		got, ok := ParsePolicy(in)
		if !ok || got != want {
			t.Fatalf("ParsePolicy(%q) = %v %v", in, got, ok)
		}
	}
	if _, ok := ParsePolicy("nonsense"); ok {
		t.Fatal("accepted junk policy")
	}
}
