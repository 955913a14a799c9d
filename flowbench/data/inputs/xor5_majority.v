module xor5_majority(a, b, c, d, e, par);
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
  assign w0 = b ^ c;
  assign w1 = d ^ e;
  assign w2 = w0 ^ w1;
  assign w3 = a ^ w2;
  assign par = w3;
endmodule
