module xor5_r1(a, b, c, d, e, par);
  input a;
  input b;
  input c;
  input d;
  input e;
  output par;
  wire w0;
  wire w1;
  wire w2;
  wire w3;
  assign w0 = a ^ b;
  assign w1 = c ^ d;
  assign w2 = w0 ^ w1;
  assign w3 = e ^ w2;
  assign par = w3;
endmodule
