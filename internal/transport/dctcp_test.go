package transport

import "testing"

func TestDCTCPAlphaConvergesUnderPersistentCongestion(t *testing.T) {
	d := newDCTCP(9000, 10*9000)
	// Every byte marked: alpha converges toward 1.
	for i := 0; i < 2000; i++ {
		d.onAck(9000, true)
	}
	if d.Alpha < 0.5 {
		t.Errorf("alpha = %v after persistent marking, want near 1", d.Alpha)
	}
	// No marks: alpha decays toward 0.
	for i := 0; i < 5000; i++ {
		d.onAck(9000, false)
	}
	if d.Alpha > 0.1 {
		t.Errorf("alpha = %v after long clean period, want near 0", d.Alpha)
	}
}

// TestDCTCPBasicDynamics checks the window core without marks: slow start
// grows the window, a loss halves it, and a timeout drops it to one MSS.
func TestDCTCPBasicDynamics(t *testing.T) {
	d := newDCTCP(1000, 10000)
	w0 := d.Window()
	d.onAck(1000, false)
	if d.Window() <= w0 {
		t.Error("slow start did not grow window")
	}
	d.onLoss()
	if d.Window() != (w0+1000)/2 {
		t.Errorf("loss window = %d, want half of %d", d.Window(), w0+1000)
	}
	d.onTimeout()
	if d.Window() != 1000 {
		t.Errorf("timeout window = %d, want 1 MSS", d.Window())
	}
}
